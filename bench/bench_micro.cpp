// Microbenchmarks (google-benchmark): the kernels behind the experiment
// harness, plus the exact-vs-approximate crossbar solver ablation.
//
// The kernel-bound families (BM_Gemm*, BM_ConvForward, BM_SmoothVotes*) are
// registered once per compute engine (core/engine_registry.hpp), so
// BENCH_micro.json records each engine's perf trajectory side by side —
// "BM_Gemm/simd/256" vs "BM_Gemm/naive/256" and so on.
//
// Unless the caller passes its own --benchmark_out, results are also written
// as JSON to BENCH_micro.json so successive PRs accumulate a machine-readable
// perf trajectory.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/engine_registry.hpp"
#include "core/gemm.hpp"
#include "core/gemm_simd.hpp"
#include "core/im2col.hpp"
#include "core/rng.hpp"
#include "defenses/input_transforms.hpp"
#include "defenses/smoothing.hpp"
#include "hw/registry.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "sram/bit_error_injector.hpp"
#include "xbar/crossbar_array.hpp"
#include "xbar/mna_solver.hpp"
#include "xbar/nonideal.hpp"

namespace {

using namespace rhw;

void BM_Gemm(benchmark::State& state, const char* engine_spec) {
  core::EngineScope scope(engine_spec);
  const int64_t n = state.range(0);
  RandomEngine rng(1);
  std::vector<float> a(static_cast<size_t>(n * n)), b(a), c(a);
  for (auto& v : a) v = rng.uniform(-1.f, 1.f);
  for (auto& v : b) v = rng.uniform(-1.f, 1.f);
  for (auto _ : state) {
    gemm(false, false, n, n, n, 1.f, a.data(), n, b.data(), n, 0.f, c.data(),
         n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK_CAPTURE(BM_Gemm, naive, "naive")->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(BM_Gemm, simd, "simd")->Arg(64)->Arg(128)->Arg(256);

// The im2col GEMM of VGG-8's largest conv at full width (out_c=256,
// col_rows=256*3*3) over a fused batch of 32 samples of 8x8 outputs —
// [256 x 2304] x [2304 x 2048]. naive is deliberately not registered on this
// shape (the double-accumulator reference is an order of magnitude slower
// and exists for parity checking, not perf tracking).
void BM_GemmConvVgg8(benchmark::State& state, const char* engine_spec) {
  core::EngineScope scope(engine_spec);
  constexpr int64_t kM = 256, kK = 2304, kN = 32 * 8 * 8;
  RandomEngine rng(13);
  std::vector<float> a(static_cast<size_t>(kM * kK));
  std::vector<float> b(static_cast<size_t>(kK * kN));
  std::vector<float> c(static_cast<size_t>(kM * kN));
  for (auto& v : a) v = rng.uniform(-1.f, 1.f);
  for (auto& v : b) v = rng.uniform(-1.f, 1.f);
  for (auto _ : state) {
    gemm(false, false, kM, kN, kK, 1.f, a.data(), kK, b.data(), kN, 0.f,
         c.data(), kN);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kM * kN * kK);
}
BENCHMARK_CAPTURE(BM_GemmConvVgg8, simd, "simd")
    ->Unit(benchmark::kMillisecond);

void BM_ConvForward(benchmark::State& state, const char* engine_spec) {
  core::EngineScope scope(engine_spec);
  const int64_t channels = state.range(0);
  nn::Conv2d conv(channels, channels, 3);
  RandomEngine rng(2);
  nn::kaiming_init(conv, rng);
  const Tensor x = Tensor::randn({8, channels, 32, 32}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK_CAPTURE(BM_ConvForward, naive, "naive")->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_ConvForward, simd, "simd")->Arg(16)->Arg(32);

// The six 3x3 convolutions of the zoo model (vgg8 at width 0.25 on 32x32
// inputs), the shapes every robustness sweep and the serving path run,
// through Engine::conv2d_forward with bias. Args: layer index, batch (4 for
// the small attack batches, 64 for smoothing votes and training).
struct ZooConv {
  int64_t in_c, out_c, size;
};
constexpr ZooConv kZooConvs[] = {{3, 16, 32},  {16, 16, 32}, {16, 32, 16},
                                 {32, 32, 16}, {32, 64, 8},  {64, 64, 8}};

void BM_ConvZooVgg8(benchmark::State& state, const char* engine_spec) {
  const ZooConv& layer = kZooConvs[state.range(0)];
  const int64_t batch = state.range(1);
  const core::EnginePtr engine = core::make_engine(engine_spec);
  const ConvGeom g{layer.in_c, layer.size, layer.size, 3, 3, 1, 1};
  RandomEngine rng(17);
  auto uniform = [&](int64_t count) {
    std::vector<float> v(static_cast<size_t>(count));
    for (auto& x : v) x = rng.uniform(-1.f, 1.f);
    return v;
  };
  const auto x = uniform(batch * g.in_c * g.in_h * g.in_w);
  const auto w = uniform(layer.out_c * g.col_rows());
  const auto b = uniform(layer.out_c);
  std::vector<float> y(static_cast<size_t>(batch * layer.out_c * g.col_cols()));
  for (auto _ : state) {
    engine->conv2d_forward(g, batch, x.data(), layer.out_c, w.data(), b.data(),
                           y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * layer.out_c *
                          g.col_rows() * g.col_cols() * batch);
  state.SetLabel(std::to_string(layer.in_c) + "->" +
                 std::to_string(layer.out_c) + " @" +
                 std::to_string(layer.size) + "^2");
}
BENCHMARK_CAPTURE(BM_ConvZooVgg8, simd, "simd")
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {4, 64}});

void BM_Im2col(benchmark::State& state) {
  ConvGeom g{16, 32, 32, 3, 3, 1, 1};
  RandomEngine rng(3);
  std::vector<float> in(static_cast<size_t>(g.in_c * g.in_h * g.in_w));
  for (auto& v : in) v = rng.uniform(0.f, 1.f);
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * g.col_cols()));
  for (auto _ : state) {
    im2col(g, in.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col);

void BM_BitErrorInjection(benchmark::State& state) {
  sram::HybridWordConfig word;
  word.num_8t = 4;
  sram::BitErrorInjector inj(word, {}, 0.68);
  RandomEngine rng(4);
  std::vector<uint8_t> codes(static_cast<size_t>(state.range(0)));
  for (auto& c : codes) c = static_cast<uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    inj.corrupt_codes(codes, rng);
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BitErrorInjection)->Arg(1 << 14)->Arg(1 << 18);

// Ablation: exact MNA grid solve vs the fast series-resistance model.
void BM_XbarExactMna(benchmark::State& state) {
  const int64_t n = state.range(0);
  xbar::CrossbarSpec spec;
  spec.rows = n;
  spec.cols = n;
  RandomEngine rng(5);
  std::vector<double> g(static_cast<size_t>(n * n));
  for (auto& v : g) {
    v = spec.g_min() + (spec.g_max() - spec.g_min()) * rng.next_double();
  }
  for (auto _ : state) {
    xbar::MnaSolver solver(g, spec);
    auto eff = solver.effective_conductance();
    benchmark::DoNotOptimize(eff.data());
  }
}
BENCHMARK(BM_XbarExactMna)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_XbarFastApprox(benchmark::State& state) {
  const int64_t n = state.range(0);
  xbar::CrossbarSpec spec;
  spec.rows = n;
  spec.cols = n;
  RandomEngine rng(6);
  std::vector<double> g(static_cast<size_t>(n * n));
  for (auto& v : g) {
    v = spec.g_min() + (spec.g_max() - spec.g_min()) * rng.next_double();
  }
  for (auto _ : state) {
    auto eff = xbar::nonideal_conductances(g, spec);
    benchmark::DoNotOptimize(eff.data());
  }
}
BENCHMARK(BM_XbarFastApprox)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_CrossbarProgramAndRead(benchmark::State& state) {
  const int64_t n = state.range(0);
  xbar::CrossbarSpec spec;
  spec.rows = n;
  spec.cols = n;
  RandomEngine rng(7);
  std::vector<float> w(static_cast<size_t>(n * n));
  for (auto& v : w) v = rng.uniform(-1.f, 1.f);
  for (auto _ : state) {
    RandomEngine var(8);
    xbar::CrossbarArray arr(w.data(), n, n, n, spec,
                            xbar::CircuitModel::kFastApprox, &var);
    benchmark::DoNotOptimize(arr.effective_weights().data());
  }
}
BENCHMARK(BM_CrossbarProgramAndRead)->Arg(16)->Arg(32)->Arg(64);

// Randomized-smoothing vote cost on a crossbar-mapped VGG8: the N noisy
// copies used to run as N sequential inner forwards; SmoothedModule::votes
// now tiles them into one large batch so the compute engine's batched conv
// (parallel_for over the batch dimension, one pool dispatch instead of N)
// amortizes across copies. The Sequential/Batched pair records that ratio
// per PR; the win scales with hardware threads relative to the per-vote
// batch (kBatch of 8 under-fills a many-core pool 16 times in the
// sequential formulation, once when batched) and is ~parity on a
// single-core host.
struct SmoothVotesBench {
  static constexpr int kSamples = 16;
  static constexpr int64_t kBatch = 8;

  models::Model model;
  rhw::hw::BackendPtr backend;
  std::unique_ptr<defenses::SmoothedModule> smoothed;
  Tensor x;

  static SmoothVotesBench& instance() {
    static SmoothVotesBench bench;
    return bench;
  }

 private:
  SmoothVotesBench() : model(models::build_model("vgg8", 10, 0.125f, 16)) {
    model.net->set_training(false);
    backend = rhw::hw::make_backend("xbar:size=32");
    backend->prepare(model);
    defenses::SmoothConfig cfg;
    cfg.sigma = 0.1f;
    cfg.samples = kSamples;
    smoothed = std::make_unique<defenses::SmoothedModule>(backend->module(),
                                                          cfg);
    RandomEngine rng(11);
    x = Tensor::rand_uniform({kBatch, 3, 16, 16}, rng);
  }
};

void BM_SmoothVotesSequential(benchmark::State& state,
                              const char* engine_spec) {
  core::EngineScope scope(engine_spec);
  auto& bench = SmoothVotesBench::instance();
  RandomEngine noise(12);
  for (auto _ : state) {
    Tensor counts;
    for (int s = 0; s < bench.kSamples; ++s) {
      Tensor noisy = bench.x;
      defenses::add_gaussian_noise(noisy, 0.1f, 0.f, 1.f, noise);
      const Tensor logits = bench.backend->module().forward(noisy);
      if (counts.empty()) counts = Tensor::zeros({bench.kBatch, logits.dim(1)});
      const auto preds = logits.argmax_rows();
      for (int64_t i = 0; i < bench.kBatch; ++i) counts.at(i, preds[i]) += 1.f;
    }
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * bench.kBatch * bench.kSamples);
}
BENCHMARK_CAPTURE(BM_SmoothVotesSequential, naive, "naive")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SmoothVotesSequential, simd, "simd")
    ->Unit(benchmark::kMillisecond);

void BM_SmoothVotesBatched(benchmark::State& state, const char* engine_spec) {
  core::EngineScope scope(engine_spec);
  auto& bench = SmoothVotesBench::instance();
  for (auto _ : state) {
    Tensor counts = bench.smoothed->votes(bench.x);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * bench.kBatch * bench.kSamples);
}
BENCHMARK_CAPTURE(BM_SmoothVotesBatched, naive, "naive")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SmoothVotesBatched, simd, "simd")
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN, plus a default JSON artifact (BENCH_micro.json) when the
// caller didn't redirect the output themselves.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false, has_fmt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) {
      has_fmt = true;
    }
  }
  // Inject the default artifact only when the caller controls neither flag:
  // pairing our .json filename with a caller-chosen format would write a
  // mislabeled file.
  if (!has_out && !has_fmt) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  ::benchmark::Initialize(&args_count, args.data());
  // Recorded in the JSON context block: whether the simd engine ran its
  // runtime-dispatched fast path or the portable baseline on this host.
  ::benchmark::AddCustomContext(
      "simd_fast_path",
      rhw::core::SimdEngine::fast_path() ? "avx2/neon" : "portable");
  if (::benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
