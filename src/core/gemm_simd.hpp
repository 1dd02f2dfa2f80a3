// SimdEngine: register-tiled packed-panel GEMM (the `simd` engine key).
//
// The micro-kernel keeps an MR x NR accumulator tile in registers across the
// whole k loop, reading A from MR-wide k-major packed panels and B from
// NR-wide packed panels. Loop order is B-panel-outer (Goto & van de Geijn):
// A is packed once, then each task packs one k x NR panel of B into its own
// scratch and sweeps every A panel over it while it sits in cache; tasks
// are split over column panels. The convolution forward packs those B
// panels straight from the NCHW input (implicit im2col), so it needs no
// column or product buffer. The kernel body is written with GCC vector
// extensions (8-float lanes), so one source compiles everywhere:
//
//   * x86-64: a second copy of every micro-kernel is built with
//     target("avx2,fma") and selected at runtime via __builtin_cpu_supports —
//     no global -mavx2 flag, the binary still runs on SSE2-only hosts;
//   * aarch64: the baseline copy lowers to NEON (Advanced SIMD is baseline);
//   * anywhere else: the baseline copy lowers to whatever the target has,
//     worst case scalar code — the portable fallback.
//
// Tile shape is spec-selectable (mr in {1,2,4,6,8}, nr in {8,16}); 6x16 is
// the default — a 6x2-vector accumulator tile plus one B strip fills the
// sixteen 256-bit registers of AVX2, and it measured fastest on the VGG-8
// conv GEMM shape. See docs/ENGINES.md for the knob table and measured
// impact.
#pragma once

#include "core/engine.hpp"

namespace rhw::core {

class SimdEngine : public Engine {
 public:
  struct Config {
    int64_t mr = 6;       // micro-tile rows, one of {1, 2, 4, 6, 8}
    int64_t nr = 16;      // micro-tile cols, one of {8, 16}
    int64_t threads = 0;  // 0 = shared pool; 1 = always serial
  };
  // Throws std::invalid_argument (naming the offending knob) on a tile
  // shape outside the instantiated set.
  explicit SimdEngine(const Config& cfg);

  std::string key() const override { return "simd"; }

  void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, int64_t lda, const float* b,
            int64_t ldb, float beta, float* c, int64_t ldc) const override;

  // Implicit-im2col convolution: each task is one (sample, NR-pixel panel);
  // it packs the panel from the input, pre-fills its output window with the
  // bias and writes micro-tiles straight into [batch, out_c, oh, ow]. Needs
  // O(k * NR) scratch per task and is bit-identical to the base
  // Engine::conv2d_forward lowering on this engine.
  void conv2d_forward(const ConvGeom& g, int64_t batch, const float* input,
                      int64_t out_c, const float* weights, const float* bias,
                      float* out) const override;

  // Vectorized gemv: lane-parallel accumulation (see the determinism note in
  // engine.hpp — per spec the lane split is fixed, so results are
  // reproducible; they differ from the scalar reference by rounding only).
  void gemv(bool trans_a, int64_t m, int64_t n, float alpha, const float* a,
            int64_t lda, const float* x, float beta, float* y) const override;

  // True when the runtime-dispatched fast path (AVX2+FMA on x86-64, NEON on
  // aarch64) is active rather than the portable baseline. Informational —
  // benchmarks and CI logs record it.
  static bool fast_path();

 private:
  Config cfg_;
};

}  // namespace rhw::core
