#include "core/gemm.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "core/rng.hpp"

namespace rhw {
namespace {

std::vector<float> random_matrix(int64_t rows, int64_t cols,
                                 RandomEngine& rng) {
  std::vector<float> m(static_cast<size_t>(rows * cols));
  for (auto& v : m) v = rng.uniform(-1.f, 1.f);
  return m;
}

void expect_near_all(const std::vector<float>& a, const std::vector<float>& b,
                     float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

TEST(Gemm, TinyKnownValues) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4, 0.f);
  gemm(false, false, 2, 2, 2, 1.f, a.data(), 2, b.data(), 2, 0.f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 19.f);
  EXPECT_FLOAT_EQ(c[1], 22.f);
  EXPECT_FLOAT_EQ(c[2], 43.f);
  EXPECT_FLOAT_EQ(c[3], 50.f);
}

TEST(Gemm, BetaAccumulates) {
  const std::vector<float> a{1, 0, 0, 1};  // identity
  const std::vector<float> b{1, 2, 3, 4};
  std::vector<float> c{10, 10, 10, 10};
  gemm(false, false, 2, 2, 2, 1.f, a.data(), 2, b.data(), 2, 1.f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 11.f);
  EXPECT_FLOAT_EQ(c[3], 14.f);
}

TEST(Gemm, AlphaScales) {
  const std::vector<float> a{2};
  const std::vector<float> b{3};
  std::vector<float> c{1};
  gemm(false, false, 1, 1, 1, 0.5f, a.data(), 1, b.data(), 1, 0.f, c.data(), 1);
  EXPECT_FLOAT_EQ(c[0], 3.f);
}

// Property sweep: the active engine must agree with the naive reference for all
// four transpose combinations and a spread of (awkward) sizes.
class GemmParity
    : public ::testing::TestWithParam<std::tuple<bool, bool, int, int, int>> {};

TEST_P(GemmParity, MatchesNaive) {
  const auto [ta, tb, m, n, k] = GetParam();
  RandomEngine rng((static_cast<uint64_t>(m) * 73856093u ^
                    static_cast<uint64_t>(n) * 19349663u ^
                    static_cast<uint64_t>(k)) +
                   (ta ? 2 : 0) + (tb ? 1 : 0));
  const auto a = random_matrix(ta ? k : m, ta ? m : k, rng);
  const auto b = random_matrix(tb ? n : k, tb ? k : n, rng);
  const int64_t lda = ta ? m : k;
  const int64_t ldb = tb ? k : n;
  std::vector<float> c_fast(static_cast<size_t>(m * n), 0.5f);
  std::vector<float> c_ref = c_fast;
  gemm(ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(), ldb, 0.7f, c_fast.data(),
       n);
  gemm_naive(ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(), ldb, 0.7f,
             c_ref.data(), n);
  expect_near_all(c_fast, c_ref, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParity,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 7, 32, 65),
                       ::testing::Values(1, 9, 33),
                       ::testing::Values(1, 17, 64)));

TEST(Gemm, LargeParallelPathMatchesNaive) {
  RandomEngine rng(99);
  const int64_t m = 128, n = 96, k = 300;  // crosses the parallel threshold
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c_fast(static_cast<size_t>(m * n), 0.f);
  std::vector<float> c_ref = c_fast;
  gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f, c_fast.data(),
       n);
  gemm_naive(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
             c_ref.data(), n);
  expect_near_all(c_fast, c_ref, 2e-3f);
}

TEST(Gemm, StridedLeadingDimensions) {
  // Views into larger buffers (ld > logical cols).
  RandomEngine rng(5);
  const auto a = random_matrix(4, 10, rng);  // use 4x3 view, lda=10
  const auto b = random_matrix(3, 8, rng);   // use 3x5 view, ldb=8
  std::vector<float> c_fast(4 * 5, 0.f), c_ref(4 * 5, 0.f);
  gemm(false, false, 4, 5, 3, 1.f, a.data(), 10, b.data(), 8, 0.f,
       c_fast.data(), 5);
  gemm_naive(false, false, 4, 5, 3, 1.f, a.data(), 10, b.data(), 8, 0.f,
             c_ref.data(), 5);
  expect_near_all(c_fast, c_ref, 1e-4f);
}

TEST(Gemv, MatchesGemmColumn) {
  RandomEngine rng(6);
  const int64_t m = 13, n = 7;
  const auto a = random_matrix(m, n, rng);
  const auto x = random_matrix(n, 1, rng);
  std::vector<float> y(static_cast<size_t>(m), 0.f);
  gemv(false, m, n, 1.f, a.data(), n, x.data(), 0.f, y.data());
  std::vector<float> y_ref(static_cast<size_t>(m), 0.f);
  gemm_naive(false, false, m, 1, n, 1.f, a.data(), n, x.data(), 1, 0.f,
             y_ref.data(), 1);
  expect_near_all(y, y_ref, 1e-4f);
}

TEST(Gemv, TransposedMatchesGemm) {
  RandomEngine rng(8);
  const int64_t m = 9, n = 11;
  const auto a = random_matrix(m, n, rng);
  const auto x = random_matrix(m, 1, rng);
  std::vector<float> y(static_cast<size_t>(n), 0.f);
  gemv(true, m, n, 1.f, a.data(), n, x.data(), 0.f, y.data());
  std::vector<float> y_ref(static_cast<size_t>(n), 0.f);
  gemm_naive(true, false, n, 1, m, 1.f, a.data(), n, x.data(), 1, 0.f,
             y_ref.data(), 1);
  expect_near_all(y, y_ref, 1e-4f);
}

TEST(Gemv, BetaZeroOverwritesStaleValues) {
  // beta == 0 must ignore whatever is in y — NaN survives y *= 0.f, so the
  // implementation needs an explicit zero-fill (regression for the gemm/gemv
  // asymmetry).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> a{1, 2, 3, 4, 5, 6};  // 2x3
  const std::vector<float> x3{1, 1, 1};
  std::vector<float> y{nan, nan};
  gemv(false, 2, 3, 1.f, a.data(), 3, x3.data(), 0.f, y.data());
  EXPECT_FLOAT_EQ(y[0], 6.f);
  EXPECT_FLOAT_EQ(y[1], 15.f);

  const std::vector<float> x2{1, 1};
  std::vector<float> yt{nan, nan, nan};
  gemv(true, 2, 3, 1.f, a.data(), 3, x2.data(), 0.f, yt.data());
  EXPECT_FLOAT_EQ(yt[0], 5.f);
  EXPECT_FLOAT_EQ(yt[1], 7.f);
  EXPECT_FLOAT_EQ(yt[2], 9.f);
}

TEST(Gemm, BetaWithStridedC) {
  // beta != 0 combined with ldc > n: the scaled stale values must come from
  // the strided positions, and the gap columns must never be touched.
  RandomEngine rng(21);
  const int64_t m = 5, n = 3, k = 4, ldc = 7;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c_fast(static_cast<size_t>(m * ldc), 2.f);
  std::vector<float> c_ref = c_fast;
  gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.5f,
       c_fast.data(), ldc);
  gemm_naive(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.5f,
             c_ref.data(), ldc);
  expect_near_all(c_fast, c_ref, 1e-4f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = n; j < ldc; ++j) {
      ASSERT_FLOAT_EQ(c_fast[static_cast<size_t>(i * ldc + j)], 2.f)
          << "gap column touched at (" << i << ", " << j << ")";
    }
  }
}

TEST(Gemm, AlphaZeroNeverReadsInputs) {
  // alpha == 0 must not dereference A or B (BLAS contract) — nullptr inputs
  // crash if the fast path is missing. beta still applies to C.
  std::vector<float> c{1.f, 2.f, 3.f, 4.f};
  gemm(false, false, 2, 2, 3, 0.f, nullptr, 3, nullptr, 2, 0.5f, c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.f);
  // ... and with beta == 0 it zero-fills, clearing stale NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> cz{nan, nan, nan, nan};
  gemm(false, false, 2, 2, 3, 0.f, nullptr, 3, nullptr, 2, 0.f, cz.data(), 2);
  for (float v : cz) EXPECT_FLOAT_EQ(v, 0.f);
}

TEST(Gemm, TransposeCombosWithLooseLeadingDims) {
  // All four transpose combinations where every operand lives in a wider
  // buffer than its logical shape (lda/ldb/ldc all non-tight) — the packing
  // paths must honor the strides.
  RandomEngine rng(22);
  const int64_t m = 6, n = 5, k = 7;
  const int64_t pad = 3;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const int64_t lda = (ta ? m : k) + pad;
      const int64_t ldb = (tb ? k : n) + pad;
      const int64_t ldc = n + pad;
      const auto a = random_matrix(ta ? k : m, lda, rng);
      const auto b = random_matrix(tb ? n : k, ldb, rng);
      std::vector<float> c_fast(static_cast<size_t>(m * ldc), -1.f);
      std::vector<float> c_ref = c_fast;
      gemm(ta, tb, m, n, k, 1.1f, a.data(), lda, b.data(), ldb, 0.3f,
           c_fast.data(), ldc);
      gemm_naive(ta, tb, m, n, k, 1.1f, a.data(), lda, b.data(), ldb, 0.3f,
                 c_ref.data(), ldc);
      expect_near_all(c_fast, c_ref, 1e-3f);
    }
  }
}

TEST(Gemv, TransposedBetaSweep) {
  // Transposed gemv across the three beta regimes: overwrite (0), accumulate
  // (1), and scale-accumulate (0.5) — each against the gemm_naive reference.
  RandomEngine rng(23);
  const int64_t m = 10, n = 6;
  const auto a = random_matrix(m, n, rng);
  const auto x = random_matrix(m, 1, rng);
  for (float beta : {0.f, 1.f, 0.5f}) {
    std::vector<float> y(static_cast<size_t>(n), 4.f);
    std::vector<float> y_ref = y;
    gemv(true, m, n, 1.f, a.data(), n, x.data(), beta, y.data());
    gemm_naive(true, false, n, 1, m, 1.f, a.data(), n, x.data(), 1, beta,
               y_ref.data(), 1);
    expect_near_all(y, y_ref, 1e-4f);
  }
}

TEST(Gemm, ZeroSizedNoCrash) {
  std::vector<float> c(1, 3.f);
  gemm(false, false, 0, 0, 0, 1.f, nullptr, 1, nullptr, 1, 0.f, c.data(), 1);
  SUCCEED();
}

}  // namespace
}  // namespace rhw
