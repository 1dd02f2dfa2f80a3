// Bit-level model equality for determinism tests: every persisted tensor
// (weights, biases, BatchNorm running statistics) must match byte for byte,
// so a difference in the last ulp of one weight fails where an accuracy
// comparison would not.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "nn/model_io.hpp"

namespace rhw::testing {

inline void expect_same_state_bits(nn::Module& a, nn::Module& b) {
  const TensorMap sa = nn::state_dict(a);
  const TensorMap sb = nn::state_dict(b);
  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_FALSE(sa.empty());
  for (const auto& [name, ta] : sa) {
    const auto it = sb.find(name);
    ASSERT_NE(it, sb.end()) << name;
    const Tensor& tb = it->second;
    ASSERT_TRUE(ta.same_shape(tb)) << name;
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(),
                          static_cast<size_t>(ta.numel()) * sizeof(float)),
              0)
        << name << " differs";
  }
}

}  // namespace rhw::testing
