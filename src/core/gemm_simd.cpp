#include "core/gemm_simd.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
// Safe without -mavx2: every intrinsic carries its own target attribute and
// is only reachable from the pragma-target functions below.
#include <immintrin.h>
#endif

#include "core/thread_pool.hpp"

// The baseline helpers pass and return vf8 by value; without -mavx that is a
// different (two-register) calling convention, which GCC flags with -Wpsabi.
// Every such function is internal to this translation unit and inlined, so
// the ABI note has no cross-TU consequence.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace rhw::core {

namespace {

// Eight-float SIMD lane written with GCC vector extensions: one source body
// lowers to AVX2 (under the target pragma below), to a pair of NEON q-ops on
// aarch64, to SSE pairs on baseline x86-64, and to scalar code elsewhere.
typedef float vf8 __attribute__((vector_size(32)));

// Unaligned load/store — packed panels and C rows are only float-aligned.
// The memcpy compiles to a single (v)movups under optimization.
inline vf8 load8(const float* p) {
  vf8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store8(float* p, vf8 v) { std::memcpy(p, &v, sizeof(v)); }
inline vf8 splat8(float x) { return vf8{x, x, x, x, x, x, x, x}; }

// The micro-kernel: an MR x (NRV*8) accumulator tile lives in registers
// across the entire k loop; A arrives as an MR-wide k-major panel
// (ap[p*MR + r]) and B as an NRV*8-wide panel (bp[p*NRV*8 + j]), both
// zero-padded to full tile width so edge handling never branches inside the
// hot loop. alpha is applied once at write-back; the caller has already run
// the beta prologue, so write-back is a pure +=.
//
// always_inline is load-bearing: the body is baseline code, but it inlines
// into the target("avx2,fma") wrappers below and is then compiled with the
// caller's ISA — one template, every instruction set.
template <int MR, int NRV>
[[gnu::always_inline]] inline void micro_kernel_body(
    int64_t k, const float* ap, const float* bp, float* c, int64_t ldc,
    int64_t mr_eff, int64_t nr_eff, float alpha) {
  vf8 acc[MR][NRV] = {};
  for (int64_t p = 0; p < k; ++p) {
    vf8 bv[NRV];
    const float* brow = bp + p * (NRV * 8);
    for (int v = 0; v < NRV; ++v) bv[v] = load8(brow + v * 8);
    const float* arow = ap + p * MR;
    for (int r = 0; r < MR; ++r) {
      const vf8 av = splat8(arow[r]);
      for (int v = 0; v < NRV; ++v) acc[r][v] += av * bv[v];
    }
  }
  const vf8 alphav = splat8(alpha);
  if (mr_eff == MR && nr_eff == NRV * 8) {
    for (int r = 0; r < MR; ++r) {
      float* crow = c + r * ldc;
      for (int v = 0; v < NRV; ++v) {
        store8(crow + v * 8, load8(crow + v * 8) + alphav * acc[r][v]);
      }
    }
  } else {
    // Edge tile: spill the full register tile, add back the valid window.
    float tile[MR][NRV * 8];
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < NRV; ++v) store8(&tile[r][v * 8], acc[r][v]);
    }
    for (int64_t r = 0; r < mr_eff; ++r) {
      float* crow = c + r * ldc;
      for (int64_t j = 0; j < nr_eff; ++j) crow[j] += alpha * tile[r][j];
    }
  }
}

// y-accumulation half of gemv; the engine method runs the beta/alpha
// prologue first. Lane-parallel with a fixed split (8-wide body + scalar
// tail), so the per-element order is a pure function of n — deterministic.
[[gnu::always_inline]] inline void gemv_accum_body(bool trans_a, int64_t m,
                                                   int64_t n, float alpha,
                                                   const float* a, int64_t lda,
                                                   const float* x, float* y) {
  if (!trans_a) {
    for (int64_t i = 0; i < m; ++i) {
      const float* row = a + i * lda;
      vf8 acc = {};
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) acc += load8(row + j) * load8(x + j);
      float lanes[8];
      store8(lanes, acc);
      float s = 0.f;
      for (int t = 0; t < 8; ++t) s += lanes[t];
      for (; j < n; ++j) s += row[j] * x[j];
      y[i] += alpha * s;
    }
  } else {
    for (int64_t i = 0; i < m; ++i) {
      const float xv = alpha * x[i];
      const vf8 xvv = splat8(xv);
      const float* row = a + i * lda;
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        store8(y + j, load8(y + j) + xvv * load8(row + j));
      }
      for (; j < n; ++j) y[j] += xv * row[j];
    }
  }
}

#define RHW_KARGS                                                     \
  int64_t k, const float *ap, const float *bp, float *c, int64_t ldc, \
      int64_t mr_eff, int64_t nr_eff, float alpha
#define RHW_KPASS k, ap, bp, c, ldc, mr_eff, nr_eff, alpha

using MicroKernelFn = void (*)(RHW_KARGS);
using GemvAccumFn = void (*)(bool, int64_t, int64_t, float, const float*,
                             int64_t, const float*, float*);

// One wrapper per instantiated (mr, nr) tile shape; the table is indexed by
// mr in {1,2,4,6,8} x nr in {8,16}.
#define RHW_DEFINE_KERNELS(PREFIX)                                         \
  void PREFIX##_1x8(RHW_KARGS) { micro_kernel_body<1, 1>(RHW_KPASS); }     \
  void PREFIX##_2x8(RHW_KARGS) { micro_kernel_body<2, 1>(RHW_KPASS); }     \
  void PREFIX##_4x8(RHW_KARGS) { micro_kernel_body<4, 1>(RHW_KPASS); }     \
  void PREFIX##_6x8(RHW_KARGS) { micro_kernel_body<6, 1>(RHW_KPASS); }     \
  void PREFIX##_8x8(RHW_KARGS) { micro_kernel_body<8, 1>(RHW_KPASS); }     \
  void PREFIX##_1x16(RHW_KARGS) { micro_kernel_body<1, 2>(RHW_KPASS); }    \
  void PREFIX##_2x16(RHW_KARGS) { micro_kernel_body<2, 2>(RHW_KPASS); }    \
  void PREFIX##_4x16(RHW_KARGS) { micro_kernel_body<4, 2>(RHW_KPASS); }    \
  void PREFIX##_6x16(RHW_KARGS) { micro_kernel_body<6, 2>(RHW_KPASS); }    \
  void PREFIX##_8x16(RHW_KARGS) { micro_kernel_body<8, 2>(RHW_KPASS); }    \
  void PREFIX##_gemv(bool trans_a, int64_t m, int64_t n, float alpha,      \
                     const float* a, int64_t lda, const float* x,          \
                     float* y) {                                           \
    gemv_accum_body(trans_a, m, n, alpha, a, lda, x, y);                   \
  }                                                                        \
  constexpr MicroKernelFn PREFIX##_table[5][2] = {                         \
      {PREFIX##_1x8, PREFIX##_1x16}, {PREFIX##_2x8, PREFIX##_2x16},        \
      {PREFIX##_4x8, PREFIX##_4x16}, {PREFIX##_6x8, PREFIX##_6x16},        \
      {PREFIX##_8x8, PREFIX##_8x16}};

// Portable baseline: whatever the compiler's default target offers (NEON on
// aarch64, SSE2 on x86-64, scalar elsewhere).
RHW_DEFINE_KERNELS(base)

#if defined(__x86_64__)
// Second copy of every kernel for AVX2+FMA hosts, selected at runtime — the
// binary itself stays runnable on SSE2-only machines. These are hand-written
// with intrinsics rather than instantiating micro_kernel_body: GCC's
// generic-vector lowering of the same body spills accumulators and splits
// broadcasts (vbroadcastss xmm + vinsertf128), costing ~2x; the intrinsic
// form keeps the tile in ymm registers and lets B loads fold into the FMAs.
// Macro-stamped plain functions (not templates) because `#pragma GCC target`
// does not reliably attach to template instantiations.
#pragma GCC push_options
#pragma GCC target("avx2,fma")

#define RHW_AVX2_KERNEL(NAME, MR, NRV)                                       \
  void NAME(RHW_KARGS) {                                                     \
    __m256 acc[MR][NRV];                                                     \
    for (int r = 0; r < MR; ++r) {                                           \
      for (int v = 0; v < NRV; ++v) acc[r][v] = _mm256_setzero_ps();         \
    }                                                                        \
    const float* arow = ap;                                                  \
    const float* brow = bp;                                                  \
    int64_t p = 0;                                                           \
    /* Unrolled by 2: per-element accumulation order stays the plain k     */\
    /* order (both halves feed the same accumulator back to back), so the  */\
    /* unroll is invisible numerically — it only hides loop overhead.      */\
    for (; p + 2 <= k; p += 2, arow += 2 * MR, brow += 2 * NRV * 8) {        \
      __m256 bv[NRV];                                                        \
      for (int v = 0; v < NRV; ++v) bv[v] = _mm256_loadu_ps(brow + v * 8);   \
      for (int r = 0; r < MR; ++r) {                                         \
        const __m256 av = _mm256_broadcast_ss(arow + r);                     \
        for (int v = 0; v < NRV; ++v) {                                      \
          acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);                 \
        }                                                                    \
      }                                                                      \
      for (int v = 0; v < NRV; ++v) {                                        \
        bv[v] = _mm256_loadu_ps(brow + NRV * 8 + v * 8);                     \
      }                                                                      \
      for (int r = 0; r < MR; ++r) {                                         \
        const __m256 av = _mm256_broadcast_ss(arow + MR + r);                \
        for (int v = 0; v < NRV; ++v) {                                      \
          acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);                 \
        }                                                                    \
      }                                                                      \
    }                                                                        \
    for (; p < k; ++p, arow += MR, brow += NRV * 8) {                        \
      __m256 bv[NRV];                                                        \
      for (int v = 0; v < NRV; ++v) bv[v] = _mm256_loadu_ps(brow + v * 8);   \
      for (int r = 0; r < MR; ++r) {                                         \
        const __m256 av = _mm256_broadcast_ss(arow + r);                     \
        for (int v = 0; v < NRV; ++v) {                                      \
          acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);                 \
        }                                                                    \
      }                                                                      \
    }                                                                        \
    if (mr_eff == MR && nr_eff == NRV * 8) {                                 \
      const __m256 alphav = _mm256_set1_ps(alpha);                           \
      for (int r = 0; r < MR; ++r) {                                         \
        float* crow = c + r * ldc;                                           \
        for (int v = 0; v < NRV; ++v) {                                      \
          const __m256 cv = _mm256_fmadd_ps(alphav, acc[r][v],               \
                                            _mm256_loadu_ps(crow + v * 8));  \
          _mm256_storeu_ps(crow + v * 8, cv);                                \
        }                                                                    \
      }                                                                      \
    } else {                                                                 \
      float tile[MR][NRV * 8];                                               \
      for (int r = 0; r < MR; ++r) {                                         \
        for (int v = 0; v < NRV; ++v) {                                      \
          _mm256_storeu_ps(&tile[r][v * 8], acc[r][v]);                      \
        }                                                                    \
      }                                                                      \
      for (int64_t r = 0; r < mr_eff; ++r) {                                 \
        float* crow = c + r * ldc;                                           \
        for (int64_t j = 0; j < nr_eff; ++j) crow[j] += alpha * tile[r][j];  \
      }                                                                      \
    }                                                                        \
  }

RHW_AVX2_KERNEL(avx2_1x8, 1, 1)
RHW_AVX2_KERNEL(avx2_2x8, 2, 1)
RHW_AVX2_KERNEL(avx2_4x8, 4, 1)
RHW_AVX2_KERNEL(avx2_6x8, 6, 1)
RHW_AVX2_KERNEL(avx2_8x8, 8, 1)
RHW_AVX2_KERNEL(avx2_1x16, 1, 2)
RHW_AVX2_KERNEL(avx2_2x16, 2, 2)
RHW_AVX2_KERNEL(avx2_4x16, 4, 2)
RHW_AVX2_KERNEL(avx2_6x16, 6, 2)
RHW_AVX2_KERNEL(avx2_8x16, 8, 2)
#undef RHW_AVX2_KERNEL

// The generic-vector gemv body compiles cleanly; reuse it under AVX2.
void avx2_gemv(bool trans_a, int64_t m, int64_t n, float alpha,
               const float* a, int64_t lda, const float* x, float* y) {
  gemv_accum_body(trans_a, m, n, alpha, a, lda, x, y);
}

constexpr MicroKernelFn avx2_table[5][2] = {
    {avx2_1x8, avx2_1x16}, {avx2_2x8, avx2_2x16}, {avx2_4x8, avx2_4x16},
    {avx2_6x8, avx2_6x16}, {avx2_8x8, avx2_8x16}};

#pragma GCC pop_options
#endif

#undef RHW_DEFINE_KERNELS
#undef RHW_KARGS
#undef RHW_KPASS

int mr_index(int64_t mr) {
  switch (mr) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    case 6: return 3;
    case 8: return 4;
    default: return -1;
  }
}

int nr_index(int64_t nr) { return nr == 8 ? 0 : nr == 16 ? 1 : -1; }

MicroKernelFn pick_kernel(int mi, int ni) {
#if defined(__x86_64__)
  if (SimdEngine::fast_path()) return avx2_table[mi][ni];
#endif
  return base_table[mi][ni];
}

GemvAccumFn pick_gemv() {
#if defined(__x86_64__)
  if (SimdEngine::fast_path()) return avx2_gemv;
#endif
  return base_gemv;
}

// Packs op(A) into ceil(m/mr) k-major panels of mr rows each
// (dst[p*mr + r] = opA[i0+r][p]), zero-padding short panels so the
// micro-kernel never reads past the matrix. Padding rows contribute nothing
// to valid outputs and padded outputs are never written back.
void pack_a(bool trans_a, int64_t m, int64_t k, const float* a, int64_t lda,
            int64_t mr, float* out) {
  const int64_t panels = (m + mr - 1) / mr;
  for (int64_t pi = 0; pi < panels; ++pi) {
    const int64_t i0 = pi * mr;
    const int64_t rows = std::min(mr, m - i0);
    float* dst = out + pi * mr * k;
    if (!trans_a) {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t r = 0; r < mr; ++r) {
          dst[p * mr + r] = r < rows ? a[(i0 + r) * lda + p] : 0.f;
        }
      }
    } else {
      for (int64_t p = 0; p < k; ++p) {
        const float* src = a + p * lda + i0;
        for (int64_t r = 0; r < mr; ++r) {
          dst[p * mr + r] = r < rows ? src[r] : 0.f;
        }
      }
    }
  }
}

// Packs the nr-column panel of op(B) that starts at column j0
// (dst[p*nr + j] = opB[p][j0+j]), zero-padded past column n like pack_a.
void pack_b_panel(bool trans_b, int64_t k, int64_t n, const float* b,
                  int64_t ldb, int64_t j0, int64_t nr, float* dst) {
  const int64_t cols = std::min(nr, n - j0);
  if (!trans_b) {
    for (int64_t p = 0; p < k; ++p) {
      const float* src = b + p * ldb + j0;
      float* row = dst + p * nr;
      std::copy(src, src + cols, row);
      std::fill(row + cols, row + nr, 0.f);
    }
    return;
  }
  for (int64_t j = 0; j < cols; ++j) {
    const float* src = b + (j0 + j) * ldb;
    for (int64_t p = 0; p < k; ++p) dst[p * nr + j] = src[p];
  }
  for (int64_t p = 0; p < k; ++p) {
    std::fill(dst + p * nr + cols, dst + (p + 1) * nr, 0.f);
  }
}

constexpr int64_t kMaxNr = 16;  // widest instantiated tile (see nr_index)

// Implicit im2col: packs the nr-pixel panel that starts at output pixel j0
// of one sample's column matrix straight from its [in_c, in_h, in_w] input,
// dst[p*nr + j] = cols[p][j0 + j] with p = (c, kh, kw) — the values
// im2col_ld would store, zero-padded past the last pixel. The panel is cut
// into runs of pixels on one output row; at stride 1 the in-bounds part of
// a run is one memcpy between zero-filled borders.
void pack_conv_panel(const ConvGeom& g, const float* input, int64_t j0,
                     int64_t nr, float* dst) {
  struct Run {
    int64_t oy = 0, ox = 0, len = 0, j = 0;
  };
  std::array<Run, kMaxNr> runs{};
  int64_t nruns = 0;
  const int64_t ow = g.out_w();
  const int64_t cols = std::min(nr, g.col_cols() - j0);
  for (int64_t j = 0; j < cols;) {
    const int64_t oy = (j0 + j) / ow, ox = (j0 + j) % ow;
    const int64_t len = std::min(ow - ox, cols - j);
    runs[static_cast<size_t>(nruns++)] = Run{oy, ox, len, j};
    j += len;
  }

  const int64_t plane = g.in_h * g.in_w;
  float* row = dst;
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* chan = input + c * plane;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, row += nr) {
        for (int64_t r = 0; r < nruns; ++r) {
          const Run& run = runs[static_cast<size_t>(r)];
          float* d = row + run.j;
          const int64_t iy = run.oy * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) {
            std::fill(d, d + run.len, 0.f);
            continue;
          }
          const float* src = chan + iy * g.in_w;
          const int64_t ix0 = run.ox * g.stride + kw - g.pad;
          if (g.stride == 1) {
            // Pixels t in [lo, hi) read src[ix0 + t]; the rest are padding.
            const int64_t lo = std::clamp<int64_t>(-ix0, 0, run.len);
            const int64_t hi = std::clamp<int64_t>(g.in_w - ix0, lo, run.len);
            std::fill(d, d + lo, 0.f);
            if (hi > lo) {
              std::memcpy(d + lo, src + (ix0 + lo),
                          static_cast<size_t>(hi - lo) * sizeof(float));
            }
            std::fill(d + hi, d + run.len, 0.f);
          } else {
            for (int64_t t = 0; t < run.len; ++t) {
              const int64_t ix = ix0 + t * g.stride;
              d[t] = ix >= 0 && ix < g.in_w ? src[ix] : 0.f;
            }
          }
        }
        std::fill(row + cols, row + nr, 0.f);
      }
    }
  }
}

// Sweeps every mr-row panel of the packed A over one packed B panel while
// the B panel sits in cache: C[i0 : i0+mr, 0 : nr_eff] += alpha * A_i0 * B.
void sweep_a_panels(MicroKernelFn kern, int64_t m, int64_t k, int64_t mr,
                    const float* ap, const float* bp, float* c, int64_t ldc,
                    int64_t nr_eff, float alpha) {
  for (int64_t i0 = 0; i0 < m; i0 += mr) {
    kern(k, ap + i0 * k, bp, c + i0 * ldc, ldc, std::min(mr, m - i0), nr_eff,
         alpha);
  }
}

// Products below this many multiply-adds stay on the calling thread.
constexpr int64_t kParallelMacs = int64_t{1} << 16;

}  // namespace

bool SimdEngine::fast_path() {
#if defined(__x86_64__)
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#elif defined(__aarch64__)
  return true;  // Advanced SIMD is baseline; the "portable" copy IS NEON.
#else
  return false;
#endif
}

SimdEngine::SimdEngine(const Config& cfg)
    : Engine("simd:mr=" + std::to_string(cfg.mr) +
             ",nr=" + std::to_string(cfg.nr) +
             ",threads=" + std::to_string(cfg.threads)),
      cfg_(cfg) {
  if (mr_index(cfg.mr) < 0) {
    throw std::invalid_argument("engine simd: mr=" + std::to_string(cfg.mr) +
                                " has no instantiated kernel (one of 1, 2, "
                                "4, 6, 8)");
  }
  if (nr_index(cfg.nr) < 0) {
    throw std::invalid_argument("engine simd: nr=" + std::to_string(cfg.nr) +
                                " has no instantiated kernel (8 or 16)");
  }
}

void SimdEngine::gemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                      int64_t k, float alpha, const float* a, int64_t lda,
                      const float* b, int64_t ldb, float beta, float* c,
                      int64_t ldc) const {
  detail::scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.f) return;

  const int64_t mr = cfg_.mr, nr = cfg_.nr;
  std::vector<float> ap(static_cast<size_t>((m + mr - 1) / mr * mr * k));
  pack_a(trans_a, m, k, a, lda, mr, ap.data());
  const MicroKernelFn kern = pick_kernel(mr_index(mr), nr_index(nr));

  // B-panel-outer: A is packed once; each task packs one k x nr column
  // panel of op(B) into its own scratch and sweeps every A panel over it.
  auto run = [&](int64_t panel_begin, int64_t panel_end) {
    std::vector<float> bp(static_cast<size_t>(k * nr));
    for (int64_t pj = panel_begin; pj < panel_end; ++pj) {
      const int64_t j0 = pj * nr;
      pack_b_panel(trans_b, k, n, b, ldb, j0, nr, bp.data());
      sweep_a_panels(kern, m, k, mr, ap.data(), bp.data(), c + j0, ldc,
                     std::min(nr, n - j0), alpha);
    }
  };

  // Column panels write disjoint C columns and each element's accumulation
  // order is the k order regardless of the split, so any thread count gives
  // bit-identical results. threads=1 forces serial.
  const int64_t npanels = (n + nr - 1) / nr;
  if (cfg_.threads == 1 || m * n * k < kParallelMacs) {
    run(0, npanels);
    return;
  }
  parallel_for(npanels, run);
}

void SimdEngine::conv2d_forward(const ConvGeom& g, int64_t batch,
                                const float* input, int64_t out_c,
                                const float* weights, const float* bias,
                                float* out) const {
  const int64_t ohw = g.col_cols();
  const int64_t k = g.col_rows();
  if (batch == 0 || ohw == 0 || out_c == 0) return;

  const int64_t mr = cfg_.mr, nr = cfg_.nr;
  std::vector<float> ap(static_cast<size_t>((out_c + mr - 1) / mr * mr * k));
  pack_a(false, out_c, k, weights, k, mr, ap.data());
  const MicroKernelFn kern = pick_kernel(mr_index(mr), nr_index(nr));
  const int64_t in_stride = g.in_c * g.in_h * g.in_w;
  const int64_t pix_panels = (ohw + nr - 1) / nr;

  // One task = one (sample, nr-pixel panel): pack the panel from the input,
  // pre-fill its [out_c x nr] window of the sample's [out_c, oh*ow] output
  // with the bias, and sweep every weight panel over it with ldc = oh*ow.
  auto run = [&](int64_t task_begin, int64_t task_end) {
    std::vector<float> bp(static_cast<size_t>(k * nr));
    for (int64_t t = task_begin; t < task_end; ++t) {
      const int64_t s = t / pix_panels;
      const int64_t j0 = (t % pix_panels) * nr;
      const int64_t nr_eff = std::min(nr, ohw - j0);
      pack_conv_panel(g, input + s * in_stride, j0, nr, bp.data());
      float* c = out + s * out_c * ohw + j0;
      for (int64_t oc = 0; oc < out_c; ++oc) {
        // The kernel adds its register sum once: acc + bias, one rounding,
        // as in the base lowering's (acc + 0) + bias. The + 0.f turns a -0
        // bias into +0 so that even the sign of a zero result agrees.
        const float init = bias != nullptr ? bias[oc] + 0.f : 0.f;
        std::fill(c + oc * ohw, c + oc * ohw + nr_eff, init);
      }
      sweep_a_panels(kern, out_c, k, mr, ap.data(), bp.data(), c, ohw, nr_eff,
                     1.f);
    }
  };

  const int64_t tasks = batch * pix_panels;
  if (cfg_.threads == 1 || out_c * k * ohw * batch < kParallelMacs) {
    run(0, tasks);
    return;
  }
  parallel_for(tasks, run);
}

void SimdEngine::gemv(bool trans_a, int64_t m, int64_t n, float alpha,
                      const float* a, int64_t lda, const float* x, float beta,
                      float* y) const {
  const int64_t len = trans_a ? n : m;
  if (beta == 0.f) {
    std::fill(y, y + len, 0.f);
  } else if (beta != 1.f) {
    for (int64_t j = 0; j < len; ++j) y[j] *= beta;
  }
  if (alpha == 0.f || m == 0 || n == 0) return;  // never reads A or x
  pick_gemv()(trans_a, m, n, alpha, a, lda, x, y);
}

}  // namespace rhw::core
