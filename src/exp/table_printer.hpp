// Aligned console tables + CSV output for the benchmark harnesses.
#pragma once

#include <string>
#include <vector>

#include "core/format.hpp"  // core::fmt, the cell number format

namespace rhw::exp {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print() const;                      // aligned, to stdout
  void write_csv(const std::string& path) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Directory for benchmark CSV artifacts; created on demand.
// Default: $RHW_BENCH_OUT or "bench_out".
std::string bench_out_dir();

}  // namespace rhw::exp
