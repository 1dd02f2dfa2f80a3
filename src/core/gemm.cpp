#include "core/gemm.hpp"

#include "core/engine.hpp"
#include "core/engine_registry.hpp"

namespace rhw {

// The free functions are the stable call surface for layer code; since the
// engine seam landed they are one-line dispatchers to the process-wide
// active engine (core/engine_registry.hpp), simd unless one is selected.

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, int64_t lda, const float* b, int64_t ldb,
          float beta, float* c, int64_t ldc) {
  core::active_engine().gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                             beta, c, ldc);
}

void gemv(bool trans_a, int64_t m, int64_t n, float alpha, const float* a,
          int64_t lda, const float* x, float beta, float* y) {
  core::active_engine().gemv(trans_a, m, n, alpha, a, lda, x, beta, y);
}

void gemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, int64_t lda, const float* b,
                int64_t ldb, float beta, float* c, int64_t ldc) {
  // Same BLAS edge contract as every engine: alpha == 0 never reads A or B,
  // beta == 0 overwrites C (0 * NaN must not resurrect stale values).
  if (alpha == 0.f) {
    core::detail::scale_c(m, n, beta, c, ldc);
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      const double prior =
          beta == 0.f ? 0.0 : static_cast<double>(beta) * c[i * ldc + j];
      c[i * ldc + j] = static_cast<float>(alpha * acc + prior);
    }
  }
}

}  // namespace rhw
