#include "exp/table_printer.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace rhw::exp {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::print() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t c = 0; c < headers_.size(); ++c) {
      std::printf(" %-*s |", static_cast<int>(width[c]),
                  c < row.size() ? row[c].c_str() : "");
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t c = 0; c < headers_.size(); ++c) {
    std::printf("%s|", std::string(width[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void TablePrinter::write_csv(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  auto write_row = [&os](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  };
  write_row(headers_);
  for (const auto& row : rows_) write_row(row);
}

std::string bench_out_dir() {
  std::string dir = "bench_out";
  // rhw-lint: allow(env) — an output path, a deployment setting
  if (const char* env = std::getenv("RHW_BENCH_OUT"); env && *env) dir = env;
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace rhw::exp
