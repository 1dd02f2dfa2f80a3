// Number formatting shared by reports at every layer (backend energy line
// items, bench tables, sweep statistics).
#pragma once

#include <cstdio>
#include <string>

namespace rhw::core {

// Fixed-precision float formatting ("12.34").
inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace rhw::core
