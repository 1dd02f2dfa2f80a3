#include "core/engine.hpp"

#include <algorithm>
#include <vector>

#include "core/gemm.hpp"
#include "core/thread_pool.hpp"

namespace rhw::core {

namespace detail {

void scale_c(int64_t m, int64_t n, float beta, float* c, int64_t ldc) {
  if (beta == 0.f) {
    for (int64_t i = 0; i < m; ++i) {
      std::fill(c + i * ldc, c + i * ldc + n, 0.f);
    }
  } else if (beta != 1.f) {
    for (int64_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

}  // namespace detail

// -- default gemv -------------------------------------------------------------

void Engine::gemv(bool trans_a, int64_t m, int64_t n, float alpha,
                  const float* a, int64_t lda, const float* x, float beta,
                  float* y) const {
  // beta == 0 must overwrite, never scale: stale/uninitialized y (NaN, inf)
  // survives y *= 0 — mirror gemm's explicit zero-fill.
  if (beta == 0.f) {
    std::fill(y, y + (trans_a ? n : m), 0.f);
  }
  if (alpha == 0.f) {
    // Never read A or x; y = beta * y is all that remains.
    if (beta != 0.f && beta != 1.f) {
      const int64_t len = trans_a ? n : m;
      for (int64_t j = 0; j < len; ++j) y[j] *= beta;
    }
    return;
  }
  // op(A) is (m x n) when !trans_a viewed as given; compute y = op(A) x.
  if (!trans_a) {
    for (int64_t i = 0; i < m; ++i) {
      double acc = 0.0;
      const float* row = a + i * lda;
      for (int64_t j = 0; j < n; ++j) acc += static_cast<double>(row[j]) * x[j];
      y[i] = static_cast<float>(alpha * acc + beta * y[i]);
    }
  } else {
    // y (n) = alpha * A^T (n x m) x (m) + beta y. No zero-skip on x: a zero
    // coefficient must still propagate NaN/Inf rows of A (engine contract).
    if (beta != 0.f && beta != 1.f) {
      for (int64_t j = 0; j < n; ++j) y[j] *= beta;
    }
    for (int64_t i = 0; i < m; ++i) {
      const float xv = alpha * x[i];
      const float* row = a + i * lda;
      for (int64_t j = 0; j < n; ++j) y[j] += xv * row[j];
    }
  }
}

// -- fused batched conv forward -----------------------------------------------

namespace {
// Scratch cap for the fused conv buffers (columns + GEMM output). Chunking
// by samples keeps the footprint bounded without changing any result: each
// output element's accumulation order depends only on the engine's k loop.
constexpr int64_t kFusedScratchBytes = int64_t{16} << 20;
}  // namespace

void Engine::conv2d_forward(const ConvGeom& g, int64_t batch,
                            const float* input, int64_t out_c,
                            const float* weights, const float* bias,
                            float* out) const {
  const int64_t ohw = g.col_cols();
  const int64_t col_rows = g.col_rows();
  const int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const int64_t out_stride = out_c * ohw;
  if (batch == 0 || ohw == 0) return;

  const int64_t bytes_per_sample = (col_rows + out_c) * ohw *
                                   static_cast<int64_t>(sizeof(float));
  const int64_t chunk = std::clamp<int64_t>(
      kFusedScratchBytes / std::max<int64_t>(bytes_per_sample, 1), 1, batch);

  std::vector<float> cols(static_cast<size_t>(col_rows * chunk * ohw));
  std::vector<float> prod(static_cast<size_t>(out_c * chunk * ohw));
  for (int64_t s0 = 0; s0 < batch; s0 += chunk) {
    const int64_t nb = std::min(chunk, batch - s0);
    const int64_t cols_n = nb * ohw;
    // Whole-chunk im2col: sample i's columns sit at column offset i*ohw of
    // one wide [col_rows x nb*ohw] buffer (disjoint writes, parallel-safe).
    parallel_for(nb, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        im2col_ld(g, input + (s0 + i) * in_stride, cols.data() + i * ohw,
                  cols_n);
      }
    });
    // One wide GEMM for the whole chunk instead of nb small per-sample ones.
    gemm(false, false, out_c, cols_n, col_rows, 1.f, weights, col_rows,
         cols.data(), cols_n, 0.f, prod.data(), cols_n);
    // Epilogue: scatter [out_c x nb*ohw] back to [nb, out_c, ohw] with the
    // bias folded in — one vectorizable pass, no scalar bias triple loop.
    parallel_for(nb, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        float* sample = out + (s0 + i) * out_stride;
        for (int64_t oc = 0; oc < out_c; ++oc) {
          const float* src = prod.data() + oc * cols_n + i * ohw;
          float* dst = sample + oc * ohw;
          const float b = bias != nullptr ? bias[oc] : 0.f;
          for (int64_t p = 0; p < ohw; ++p) dst[p] = src[p] + b;
        }
      }
    });
  }
}

// -- naive --------------------------------------------------------------------

void NaiveEngine::gemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, int64_t lda,
                       const float* b, int64_t ldb, float beta, float* c,
                       int64_t ldc) const {
  gemm_naive(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

}  // namespace rhw::core
