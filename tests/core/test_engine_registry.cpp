// EngineRegistry seam tests: registry error parity with the other four
// registries, the numeric contract from engine.hpp (alpha==0 / beta==0 /
// NaN propagation), per-engine parity versus the naive reference, the fused batched conv against a per-sample reference, and the
// active-engine selection machinery (EngineScope, determinism).
#include "core/engine_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/gemm.hpp"
#include "core/gemm_simd.hpp"
#include "core/im2col.hpp"
#include "core/rng.hpp"

namespace rhw {
namespace {

std::vector<float> random_matrix(int64_t rows, int64_t cols,
                                 RandomEngine& rng) {
  std::vector<float> m(static_cast<size_t>(rows * cols));
  for (auto& v : m) v = rng.uniform(-1.f, 1.f);
  return m;
}

// Engines accumulate in different orders, so parity versus naive holds to a
// FLOP-scaled tolerance: eps * k * |values|~1 with headroom.
float flop_tol(int64_t k) {
  return 1e-6f * static_cast<float>(std::max<int64_t>(k, 1)) * 8.f + 1e-6f;
}

const char* const kAllEngines[] = {"naive", "simd"};

// -- registry surface ---------------------------------------------------------

TEST(EngineRegistry, BuiltinsRegistered) {
  const auto keys = core::EngineRegistry::instance().keys();
  for (const char* expected : kAllEngines) {
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), expected) != keys.end())
        << expected;
    EXPECT_TRUE(core::EngineRegistry::instance().contains(expected));
  }
}

TEST(EngineRegistry, UnknownKeyThrowsWithTokenNaming) {
  try {
    core::make_engine("cublas");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown compute engine"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cublas"), std::string::npos) << msg;
    EXPECT_NE(msg.find("registered:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("simd"), std::string::npos) << msg;
  }
}

TEST(EngineRegistry, UnknownOptionThrows) {
  EXPECT_THROW(core::make_engine("naive:x=1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(core::make_engine("simd:lanes=4"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

// Errors name the offending key, the bad value, AND the full spec string —
// same contract as the hw/attack/defense/experiment registries.
TEST(EngineRegistry, ParseErrorNamesKeyValueAndSpec) {
  try {
    core::make_engine("simd:mr=abc");  // rhw-lint: allow(spec) stale on purpose
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mr"), std::string::npos) << msg;
    EXPECT_NE(msg.find("abc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("simd:mr=abc"), std::string::npos) << msg;  // rhw-lint: allow(spec) stale on purpose
  }
}

TEST(EngineRegistry, InvalidKnobValuesThrow) {
  EXPECT_THROW(core::make_engine("simd:mr=3"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(core::make_engine("simd:nr=12"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(core::make_engine("simd:mr=7.5"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

TEST(EngineRegistry, CanonicalSpecSpellsOutEveryKnob) {
  EXPECT_EQ(core::make_engine("naive")->spec(), "naive");
  EXPECT_EQ(core::make_engine("simd")->spec(), "simd:mr=6,nr=16,threads=0");
  EXPECT_EQ(core::make_engine("simd:mr=8,nr=8")->spec(),
            "simd:mr=8,nr=8,threads=0");
  // Canonical specs round-trip through the registry unchanged.
  for (const char* key : kAllEngines) {
    const auto spec = core::make_engine(key)->spec();
    EXPECT_EQ(core::make_engine(spec)->spec(), spec) << key;
  }
}

TEST(EngineRegistry, CustomEngineRegistration) {
  core::EngineRegistry::instance().add(
      "custom-naive", [](const core::EngineOptions&) -> core::EnginePtr {
        return core::make_engine("naive");
      });
  auto engine = core::make_engine("custom-naive");
  EXPECT_EQ(engine->key(), "naive");
}

// -- numeric contract ---------------------------------------------------------

class EngineContract : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineContract, AlphaZeroNeverReadsInputs) {
  auto engine = core::make_engine(GetParam());
  std::vector<float> c{1.f, 2.f, 3.f, 4.f};
  engine->gemm(false, false, 2, 2, 8, 0.f, nullptr, 8, nullptr, 2, 2.f,
               c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 2.f);
  EXPECT_FLOAT_EQ(c[3], 8.f);
}

TEST_P(EngineContract, BetaZeroOverwritesStaleNaN) {
  auto engine = core::make_engine(GetParam());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{1, 0, 0, 1};
  std::vector<float> c{nan, nan, nan, nan};
  engine->gemm(false, false, 2, 2, 2, 1.f, a.data(), 2, b.data(), 2, 0.f,
               c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 1.f);
  EXPECT_FLOAT_EQ(c[1], 2.f);
  EXPECT_FLOAT_EQ(c[2], 3.f);
  EXPECT_FLOAT_EQ(c[3], 4.f);
}

TEST_P(EngineContract, NaNInInputsPropagates) {
  // A zero row in A multiplying a NaN in B still yields NaN (0 * NaN = NaN)
  // on every engine: no kernel skips zero terms.
  auto engine = core::make_engine(GetParam());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> a{0, 0, 1, 1};   // row 0 all zeros
  const std::vector<float> b{nan, 1, 2, 3};
  std::vector<float> c(4, 0.f);
  engine->gemm(false, false, 2, 2, 2, 1.f, a.data(), 2, b.data(), 2, 0.f,
               c.data(), 2);
  EXPECT_TRUE(std::isnan(c[0])) << engine->spec() << " c[0]=" << c[0];
  EXPECT_TRUE(std::isnan(c[2]));
}

TEST_P(EngineContract, DeterministicAcrossRepeats) {
  auto engine = core::make_engine(GetParam());
  RandomEngine rng(31);
  const int64_t m = 67, n = 45, k = 123;  // crosses the parallel threshold
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> first(static_cast<size_t>(m * n), 0.f);
  engine->gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
               first.data(), n);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<float> again(static_cast<size_t>(m * n), 0.f);
    engine->gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
                 again.data(), n);
    ASSERT_EQ(first, again) << engine->spec() << " rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineContract,
                         ::testing::ValuesIn(kAllEngines));

// -- parity versus naive ------------------------------------------------------

class EngineParity
    : public ::testing::TestWithParam<std::tuple<const char*, bool, bool>> {};

TEST_P(EngineParity, MatchesNaiveAcrossShapes) {
  const auto [spec, ta, tb] = GetParam();
  auto engine = core::make_engine(spec);
  auto naive = core::make_engine("naive");
  // Sizes chosen to hit full tiles, edge tiles, packing, and the parallel
  // threshold; leading dims padded to exercise the strided paths.
  const std::tuple<int, int, int> shapes[] = {
      {1, 1, 1}, {5, 3, 4}, {17, 9, 33}, {64, 48, 96}, {70, 31, 129}};
  for (const auto& [m, n, k] : shapes) {
    RandomEngine rng(static_cast<uint64_t>(m * 31 + n * 7 + k) + (ta ? 64 : 0) +
                     (tb ? 128 : 0));
    const int64_t pad = (m + n + k) % 3;  // mix tight and loose lds
    const int64_t lda = (ta ? m : k) + pad;
    const int64_t ldb = (tb ? k : n) + pad;
    const int64_t ldc = n + pad;
    const auto a = random_matrix(ta ? k : m, lda, rng);
    const auto b = random_matrix(tb ? n : k, ldb, rng);
    std::vector<float> c(static_cast<size_t>(m * ldc), 0.25f);
    std::vector<float> c_ref = c;
    engine->gemm(ta, tb, m, n, k, 0.9f, a.data(), lda, b.data(), ldb, 0.4f,
                 c.data(), ldc);
    naive->gemm(ta, tb, m, n, k, 0.9f, a.data(), lda, b.data(), ldb, 0.4f,
                c_ref.data(), ldc);
    const float tol = flop_tol(k);
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], tol)
          << spec << " shape (" << m << "," << n << "," << k << ") ta=" << ta
          << " tb=" << tb << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineParity,
    ::testing::Combine(::testing::Values("simd", "simd:mr=1,nr=8",
                                         "simd:mr=8,nr=8", "simd:mr=4,nr=16",
                                         "simd:threads=1"),
                       ::testing::Bool(), ::testing::Bool()));

// Few rows, many column panels: the shape where the B-panel-outer split has
// the most tasks. Pooled and serial runs must agree bit for bit, for every
// transpose and with loose leading dimensions (ldb > n on the plain path).
TEST(EngineParity, SimdSmallMLargeNBitEqualAcrossThreads) {
  const std::pair<const char*, const char*> engines[] = {
      {"simd:mr=6,nr=16,threads=0", "simd:mr=6,nr=16,threads=1"},
      {"simd:mr=1,nr=8,threads=0", "simd:mr=1,nr=8,threads=1"},
      {"simd:mr=8,nr=16,threads=0", "simd:mr=8,nr=16,threads=1"}};
  const int64_t m = 3, n = 1000, k = 77;
  RandomEngine rng(71);
  for (const auto& [pooled_spec, serial_spec] : engines) {
    auto pooled = core::make_engine(pooled_spec);
    auto serial = core::make_engine(serial_spec);
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        const int64_t lda = (ta ? m : k) + 3;
        const int64_t ldb = (tb ? k : n) + 5;
        const int64_t ldc = n + 2;
        const auto a = random_matrix(ta ? k : m, lda, rng);
        const auto b = random_matrix(tb ? n : k, ldb, rng);
        std::vector<float> c(static_cast<size_t>(m * ldc), 0.5f);
        std::vector<float> c_serial = c;
        pooled->gemm(ta, tb, m, n, k, 0.7f, a.data(), lda, b.data(), ldb, 0.3f,
                     c.data(), ldc);
        serial->gemm(ta, tb, m, n, k, 0.7f, a.data(), lda, b.data(), ldb,
                     0.3f, c_serial.data(), ldc);
        ASSERT_EQ(c, c_serial) << pooled_spec << " ta=" << ta << " tb=" << tb;
      }
    }
  }
}

TEST(EngineParity, SimdGemvMatchesNaive) {
  auto simd = core::make_engine("simd");
  auto naive = core::make_engine("naive");
  RandomEngine rng(41);
  const int64_t m = 37, n = 53;
  const auto a = random_matrix(m, n, rng);
  for (bool trans : {false, true}) {
    const int64_t xs = trans ? m : n;
    const int64_t ys = trans ? n : m;
    const auto x = random_matrix(xs, 1, rng);
    for (float beta : {0.f, 1.f, 0.5f}) {
      std::vector<float> y(static_cast<size_t>(ys), 1.5f);
      std::vector<float> y_ref = y;
      simd->gemv(trans, m, n, 0.8f, a.data(), n, x.data(), beta, y.data());
      naive->gemv(trans, m, n, 0.8f, a.data(), n, x.data(), beta,
                  y_ref.data());
      const float tol = flop_tol(trans ? m : n);
      for (size_t i = 0; i < y.size(); ++i) {
        ASSERT_NEAR(y[i], y_ref[i], tol)
            << "trans=" << trans << " beta=" << beta << " at " << i;
      }
    }
  }
}

// -- fused batched convolution ------------------------------------------------

// Per-sample reference: im2col + one GEMM per sample + scalar bias loop —
// the shape of the historical nn::Conv2d forward.
void conv_reference(const ConvGeom& g, int64_t batch, const float* input,
                    int64_t out_c, const float* weights, const float* bias,
                    float* out) {
  const int64_t cr = g.col_rows(), cc = g.col_cols();
  const int64_t in_sz = g.in_c * g.in_h * g.in_w;
  std::vector<float> cols(static_cast<size_t>(cr * cc));
  auto naive = core::make_engine("naive");
  for (int64_t i = 0; i < batch; ++i) {
    im2col(g, input + i * in_sz, cols.data());
    float* dst = out + i * out_c * cc;
    naive->gemm(false, false, out_c, cc, cr, 1.f, weights, cr, cols.data(), cc,
                0.f, dst, cc);
    if (bias) {
      for (int64_t oc = 0; oc < out_c; ++oc) {
        for (int64_t p = 0; p < cc; ++p) dst[oc * cc + p] += bias[oc];
      }
    }
  }
}

class EngineConv : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineConv, FusedForwardMatchesPerSampleReference) {
  auto engine = core::make_engine(GetParam());
  ConvGeom g;
  g.in_c = 3;
  g.in_h = 9;
  g.in_w = 9;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.stride = 1;
  g.pad = 1;
  const int64_t batch = 5, out_c = 7;
  RandomEngine rng(51);
  const auto input = random_matrix(batch, g.in_c * g.in_h * g.in_w, rng);
  const auto weights = random_matrix(out_c, g.col_rows(), rng);
  const auto bias = random_matrix(out_c, 1, rng);
  const size_t out_sz = static_cast<size_t>(batch * out_c * g.col_cols());
  for (const float* b : {bias.data(), static_cast<const float*>(nullptr)}) {
    std::vector<float> out(out_sz, -9.f), ref(out_sz, -9.f);
    engine->conv2d_forward(g, batch, input.data(), out_c, weights.data(), b,
                           out.data());
    conv_reference(g, batch, input.data(), out_c, weights.data(), b,
                   ref.data());
    const float tol = flop_tol(g.col_rows());
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_NEAR(out[i], ref[i], tol)
          << GetParam() << (b ? " with bias" : " no bias") << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConv,
                         ::testing::ValuesIn(kAllEngines));

TEST(EngineConv, ChunkingInvariance) {
  // A batch large enough to force multiple scratch chunks must produce the
  // same bits as the same conv run one sample at a time through the fused
  // path (per-element accumulation order is chunk-independent).
  auto engine = core::make_engine("simd");
  ConvGeom g;
  g.in_c = 2;
  g.in_h = 6;
  g.in_w = 6;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.stride = 1;
  g.pad = 1;
  const int64_t batch = 9, out_c = 4;
  RandomEngine rng(61);
  const auto input = random_matrix(batch, g.in_c * g.in_h * g.in_w, rng);
  const auto weights = random_matrix(out_c, g.col_rows(), rng);
  const size_t per_sample = static_cast<size_t>(out_c * g.col_cols());
  std::vector<float> whole(static_cast<size_t>(batch) * per_sample, 0.f);
  engine->conv2d_forward(g, batch, input.data(), out_c, weights.data(),
                         nullptr, whole.data());
  std::vector<float> single(static_cast<size_t>(batch) * per_sample, 0.f);
  const int64_t in_sz = g.in_c * g.in_h * g.in_w;
  for (int64_t i = 0; i < batch; ++i) {
    engine->conv2d_forward(g, 1, input.data() + i * in_sz, out_c,
                           weights.data(), nullptr,
                           single.data() + i * per_sample);
  }
  ASSERT_EQ(whole, single);
}

// The implicit-im2col forward must reproduce the base lowering (im2col +
// one GEMM + bias epilogue) on the same engine bit for bit: same packed
// values, same k order, one rounding for acc + bias. Shapes cover stride 2,
// pad 0 and 2, 1x1 and 5x5 kernels, non-square inputs, ow < nr (a panel
// spans output rows), oh*ow not a multiple of nr and out_c not a multiple of
// mr, for every instantiated tile, pooled and serial.
TEST(EngineConv, SimdImplicitIm2colBitEqualsBaseLowering) {
  struct Case {
    int64_t in_c, in_h, in_w, kernel, stride, pad, out_c;
  };
  const Case cases[] = {
      {3, 9, 9, 3, 1, 1, 7},    // the zoo's 3x3 same conv, 81 pixels
      {4, 11, 7, 3, 2, 1, 6},   // stride 2, non-square
      {5, 6, 10, 1, 1, 0, 13},  // 1x1, pad 0
      {2, 12, 9, 5, 1, 2, 9},   // 5x5, pad 2
      {3, 7, 5, 5, 2, 2, 4},    // 5x5, stride 2, pad 2, ow = 3
      {2, 4, 3, 3, 1, 0, 3},    // pad 0, ow = 1
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t mr : {1, 2, 4, 6, 8}) {
    for (int64_t nr : {8, 16}) {
      std::vector<float> pooled_out;
      for (int64_t threads : {0, 1}) {
        const auto engine = core::make_engine(
            "simd:mr=" + std::to_string(mr) + ",nr=" + std::to_string(nr) +
            ",threads=" + std::to_string(threads));
        std::vector<float> all_out;
        RandomEngine rng(81);
        for (const Case& cs : cases) {
          const ConvGeom g{cs.in_c,  cs.in_h,   cs.in_w, cs.kernel,
                           cs.kernel, cs.stride, cs.pad};
          for (int64_t batch : {1, 3, 17}) {
            const auto input =
                random_matrix(batch, g.in_c * g.in_h * g.in_w, rng);
            const auto weights = random_matrix(cs.out_c, g.col_rows(), rng);
            const auto bias = random_matrix(cs.out_c, 1, rng);
            const size_t out_sz =
                static_cast<size_t>(batch * cs.out_c * g.col_cols());
            for (const float* b :
                 {bias.data(), static_cast<const float*>(nullptr)}) {
              std::vector<float> out(out_sz, nan), ref(out_sz, nan);
              engine->conv2d_forward(g, batch, input.data(), cs.out_c,
                                     weights.data(), b, out.data());
              engine->core::Engine::conv2d_forward(g, batch, input.data(),
                                                   cs.out_c, weights.data(),
                                                   b, ref.data());
              ASSERT_EQ(out, ref)
                  << engine->spec() << " case in_c=" << cs.in_c
                  << " kernel=" << cs.kernel << " stride=" << cs.stride
                  << " pad=" << cs.pad << " batch=" << batch
                  << (b ? " with bias" : " no bias");
              all_out.insert(all_out.end(), out.begin(), out.end());
            }
          }
        }
        if (threads == 0) {
          pooled_out = std::move(all_out);
        } else {
          ASSERT_EQ(pooled_out, all_out) << "threads=0 vs threads=1, mr=" << mr
                                         << " nr=" << nr;
        }
      }
    }
  }
}

// -- active-engine selection --------------------------------------------------

TEST(EngineScope, SelectsAndRestores) {
  const std::string before = core::active_engine().spec();
  {
    core::EngineScope scope("naive");
    EXPECT_EQ(core::active_engine().spec(), "naive");
    {
      core::EngineScope inner("simd:mr=8,nr=8");
      EXPECT_EQ(core::active_engine().spec(), "simd:mr=8,nr=8,threads=0");
    }
    EXPECT_EQ(core::active_engine().spec(), "naive");
  }
  EXPECT_EQ(core::active_engine().spec(), before);
}

// With nothing selected, every kernel call runs on simd with its default
// tile, and the driver stamps that canonical spec into artifacts.
TEST(EngineScope, DefaultEngineIsSimd) {
  EXPECT_EQ(core::active_engine().spec(), "simd:mr=6,nr=16,threads=0");
}

// Counts the calls it forwards to the naive reference, so the test can see
// which engine the free functions reached.
class CountingEngine : public core::Engine {
 public:
  explicit CountingEngine(std::shared_ptr<std::atomic<int>> calls)
      : Engine("counting"), calls_(std::move(calls)) {}
  std::string key() const override { return "counting"; }
  void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, int64_t lda, const float* b,
            int64_t ldb, float beta, float* c, int64_t ldc) const override {
    ++*calls_;
    naive_.gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                ldc);
  }
  void gemv(bool trans_a, int64_t m, int64_t n, float alpha, const float* a,
            int64_t lda, const float* x, float beta, float* y) const override {
    ++*calls_;
    naive_.gemv(trans_a, m, n, alpha, a, lda, x, beta, y);
  }

 private:
  std::shared_ptr<std::atomic<int>> calls_;
  core::NaiveEngine naive_;
};

TEST(EngineScope, FreeGemmRoutesThroughActiveEngine) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  core::EngineRegistry::instance().add(
      "counting", [calls](const core::EngineOptions&) -> core::EnginePtr {
        return std::make_shared<CountingEngine>(calls);
      });
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> x{1, 1};
  std::vector<float> c(4, 0.f);
  std::vector<float> y(2, 0.f);
  {
    core::EngineScope scope("counting");
    gemm(false, false, 2, 2, 2, 1.f, a.data(), 2, a.data(), 2, 0.f, c.data(),
         2);
    gemv(false, 2, 2, 1.f, a.data(), 2, x.data(), 0.f, y.data());
  }
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(c, (std::vector<float>{7, 10, 15, 22}));
  EXPECT_EQ(y, (std::vector<float>{3, 7}));
  // Outside the scope the free functions no longer reach the counting engine.
  gemm(false, false, 2, 2, 2, 1.f, a.data(), 2, a.data(), 2, 0.f, c.data(), 2);
  EXPECT_EQ(calls->load(), 2);
}

TEST(EngineScope, SetActiveEngineRejectsNull) {
  EXPECT_THROW(core::set_active_engine(core::EnginePtr{}),
               std::invalid_argument);
}

TEST(EngineRegistry, FastPathReportsWithoutCrashing) {
  // Informational only — just make sure the runtime dispatch query is safe
  // to call and stable.
  const bool first = core::SimdEngine::fast_path();
  EXPECT_EQ(core::SimdEngine::fast_path(), first);
}

}  // namespace
}  // namespace rhw
