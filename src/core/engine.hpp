// The compute-engine seam: every dense kernel in the repo — GEMM, GEMV and
// the im2col-lowered convolution — runs through one core::Engine, selected by
// spec string through core::EngineRegistry (engine_registry.hpp). This is the
// fifth string-keyed seam after hardware / attacks / defenses / experiments:
// SweepEngine cells, smoothing-vote batches, adv_train inner PGD loops and
// crossbar tiling all bottom out here, so an engine swap moves every
// workload at once.
//
// Built-in keys (docs/ENGINES.md has every knob, default and the bench
// impact table):
//
//   naive                      reference triple loop, double accumulators
//   simd[:threads=,mr=,nr=]    register-tiled packed-panel micro-kernel GEMM
//                              (AVX2/FMA on x86-64, NEON on aarch64, portable
//                              fallback elsewhere), vectorized GEMV; the
//                              default
//
// Numeric contract (asserted by tests/core/test_engine_registry.cpp):
//
//   * alpha == 0 never reads A or B (C = beta * C exactly);
//   * beta == 0 overwrites C — stale NaN/Inf in C never survives;
//   * NaN/Inf in A or B propagate into C exactly as in the naive reference;
//   * every engine is deterministic: for a fixed spec the result is a pure
//     function of the inputs, bit-identical at any thread/lane count.
//
// Cross-engine *equality* is NOT claimed: engines order their float
// accumulations differently, so parity versus `naive` holds to a
// FLOP-scaled tolerance only (exact where k is tiny enough for float
// associativity not to matter).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/im2col.hpp"

namespace rhw::core {

class Engine {
 public:
  virtual ~Engine() = default;

  // Registry key ("simd") and full canonical spec with every knob spelled
  // out ("simd:mr=6,nr=16,threads=0") — what artifacts and banners record.
  virtual std::string key() const = 0;
  const std::string& spec() const { return spec_; }

  // C = alpha * op(A) * op(B) + beta * C. Row-major with explicit leading
  // dimensions, op(X) is X or X^T (the BLAS surface core/gemm.hpp mirrors).
  virtual void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                    int64_t k, float alpha, const float* a, int64_t lda,
                    const float* b, int64_t ldb, float beta, float* c,
                    int64_t ldc) const = 0;

  // y = alpha * op(A) * x + beta * y. Default: the scalar reference loop
  // (double accumulators on the non-transposed path).
  virtual void gemv(bool trans_a, int64_t m, int64_t n, float alpha,
                    const float* a, int64_t lda, const float* x, float beta,
                    float* y) const;

  // Fused batched convolution forward: im2col the whole batch (chunked to a
  // bounded scratch footprint) into one [col_rows x chunk*ohw] buffer, run
  // ONE [out_c x col_rows] x [col_rows x chunk*ohw] GEMM through this
  // engine, and scatter back to the [batch, out_c, oh, ow] layout with the
  // bias added in the same (vectorizable) epilogue pass — replacing the
  // unfused batch-of-small-GEMMs path plus scalar bias triple loop.
  //
  // `input` is [batch, in_c, in_h, in_w]; `weights` is [out_c, col_rows]
  // contiguous; `bias` is [out_c] or nullptr; `out` is [batch, out_c,
  // oh, ow]. Chunking never changes results: each output element's
  // accumulation order depends only on the engine's k-loop order.
  // SimdEngine overrides this with an implicit im2col that needs no column
  // or product buffer (gemm_simd.hpp).
  virtual void conv2d_forward(const ConvGeom& g, int64_t batch,
                              const float* input, int64_t out_c,
                              const float* weights, const float* bias,
                              float* out) const;

 protected:
  explicit Engine(std::string spec) : spec_(std::move(spec)) {}

 private:
  std::string spec_;
};

// Engines are immutable after construction and shared freely across threads.
using EnginePtr = std::shared_ptr<const Engine>;

// Reference engine: gemm_naive / the scalar gemv, double accumulators. The
// parity baseline every other engine is tested against.
class NaiveEngine : public Engine {
 public:
  NaiveEngine() : Engine("naive") {}
  std::string key() const override { return "naive"; }
  void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, int64_t lda, const float* b,
            int64_t ldb, float beta, float* c, int64_t ldc) const override;
};

namespace detail {
// Shared beta prologue for engines that accumulate with += after scaling:
// beta == 0 overwrites C (stale NaN/Inf never survives), beta == 1 is a
// no-op, anything else scales in place.
void scale_c(int64_t m, int64_t n, float beta, float* c, int64_t ldc);
}  // namespace detail

}  // namespace rhw::core
