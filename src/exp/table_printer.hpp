// Aligned console tables + CSV output for the benchmark harnesses.
#pragma once

#include <string>
#include <vector>

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

// Fixed-precision float formatting ("12.34").
std::string fmt(double v, int precision = 2);

// Directory for benchmark CSV artifacts; created on demand.
// Default: $RHW_BENCH_OUT or "bench_out".
std::string bench_out_dir();

// True when $RHW_FAST is set to anything but "" or "0". The one parsing rule
// behind every fast-mode switch (the presets' small-model pipeline and
// eval_count's smaller default).
bool fast_mode();

// Evaluation-subset size shared by benches: $RHW_EVAL_COUNT, or
// `default_count` (a quarter of it in fast_mode()).
int64_t eval_count(int64_t default_count = 256);

}  // namespace rhw::exp
