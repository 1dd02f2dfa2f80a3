// Single-precision GEMM / GEMV entry points.
//
//   C = alpha * op(A) * op(B) + beta * C
//
// op(X) is X or X^T. Row-major storage with explicit leading dimensions,
// mirroring the BLAS interface so layer code reads conventionally. This is the
// hot loop of the whole repo (conv via im2col and all linear layers).
//
// Both calls dispatch to the process-wide active core::Engine — select it
// with core::set_active_engine or the experiment `engine=` knob
// (core/engine_registry.hpp, docs/ENGINES.md). The default engine is simd.
#pragma once

#include <cstdint>

namespace rhw {

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, int64_t lda, const float* b, int64_t ldb,
          float beta, float* c, int64_t ldc);

// Reference implementation (naive triple loop) used by tests to validate the
// active engine.
void gemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, int64_t lda, const float* b,
                int64_t ldb, float beta, float* c, int64_t ldc);

// y = alpha * op(A) * x + beta * y   (matrix-vector)
void gemv(bool trans_a, int64_t m, int64_t n, float alpha, const float* a,
          int64_t lda, const float* x, float beta, float* y);

}  // namespace rhw
