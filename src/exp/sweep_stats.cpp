#include "exp/sweep_stats.hpp"

#include <cmath>
#include <cstdio>

#include "core/format.hpp"
#include "core/stats.hpp"

namespace rhw::exp {

namespace {

// Two-sided 95% Student-t critical values for df = 1..30; the normal-approx
// z = 1.96 only beyond. Sweeps typically run 2-5 trials, where the normal
// approximation would understate the interval by 2-6x.
double t95(int64_t df) {
  static constexpr double kT95[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df < 1) return 0.0;
  if (df <= 30) return kT95[df - 1];
  return 1.96;
}

}  // namespace

SweepStat summarize(std::span<const double> xs) {
  RunningStats acc;
  for (double x : xs) acc.push(x);
  SweepStat out;
  out.n = acc.count;
  out.mean = acc.mean;
  out.stddev = acc.stddev();
  if (acc.count > 1) {
    out.ci95 =
        t95(acc.count - 1) * out.stddev / std::sqrt(static_cast<double>(acc.count));
  }
  return out;
}

std::string SweepStat::format(int precision) const {
  if (n > 1 && ci95 > 0.0) {
    return core::fmt(mean, precision) + "±" + core::fmt(ci95, precision);
  }
  return core::fmt(mean, precision);
}

void JsonWriter::comma() {
  if (!has_elems_.empty() && has_elems_.back() && !after_key_) os_ << ',';
  if (!has_elems_.empty() && !after_key_) has_elems_.back() = true;
  after_key_ = false;
}

void JsonWriter::open(char c) {
  comma();
  os_ << c;
  has_elems_.push_back(false);
}

void JsonWriter::close(char c) {
  has_elems_.pop_back();
  os_ << c;
  if (!has_elems_.empty()) has_elems_.back() = true;
}

void JsonWriter::begin_object() { open('{'); }
void JsonWriter::end_object() { close('}'); }
void JsonWriter::begin_array() { open('['); }
void JsonWriter::end_array() { close(']'); }

void JsonWriter::key(const std::string& k) {
  comma();
  os_ << '"' << json_escape(k) << "\":";
  after_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  comma();
  os_ << '"' << json_escape(v) << '"';
}

void JsonWriter::null_value() {
  comma();
  os_ << "null";
}

void JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    os_ << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os_ << buf;
}

void JsonWriter::value(int64_t v) {
  comma();
  os_ << v;
}

void JsonWriter::value(uint64_t v) {
  comma();
  os_ << v;
}

void JsonWriter::value(bool v) {
  comma();
  os_ << (v ? "true" : "false");
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace rhw::exp
