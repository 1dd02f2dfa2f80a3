#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/registry.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "data/synth_cifar.hpp"
#include "hw/registry.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"

namespace rhw::exp {
namespace {

// Shared fixture: one small (untrained — determinism, not accuracy, is under
// test) model and dataset for every grid.
class SweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 4;
    dcfg.test_per_class = 12;
    dcfg.image_size = 16;
    data_ = new data::SynthCifar(data::make_synth_cifar(dcfg));
    model_ = new models::Model(models::build_model("vgg8", 4, 0.125f, 16));
    // build_model leaves weights at zero, which would make every logit 0.
    RandomEngine rng(3);
    nn::kaiming_init(*model_->net, rng);
    model_->net->set_training(false);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  // A grid exercising every scheduling feature: spec + bind backends, shared
  // eval backends, grad == eval pairing, eps == 0 rows, multiple attacks,
  // multiple trials.
  static SweepGrid make_grid() {
    SweepGrid grid;
    grid.model = model_;
    grid.width_mult = 0.125f;
    grid.in_size = 16;
    grid.eval_set = &data_->test;
    grid.base.batch_size = 16;
    grid.trials = 2;
    grid.backends.push_back({"ideal", "ideal"});
    grid.backends.push_back({"sram", "sram:sites=2,num_8t=2,vdd=0.6"});
    grid.backends.push_back({"xbar", "xbar:size=16"});
    grid.modes.push_back({"Attack-SW", "ideal", "ideal"});
    grid.modes.push_back({"SH-sram", "ideal", "sram"});
    grid.modes.push_back({"HH-xbar", "xbar", "xbar"});
    grid.attacks.push_back({"fgsm", {0.f, 0.1f}});
    grid.attacks.push_back({"pgd", {8.f / 255.f}});
    return grid;
  }

  static SweepResult run_with_threads(unsigned threads) {
    SweepEngine::Options opt;
    opt.threads = threads;
    SweepEngine engine(opt);
    return engine.run(make_grid());
  }

  static void expect_identical(const SweepResult& a, const SweepResult& b) {
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (size_t i = 0; i < a.cells.size(); ++i) {
      EXPECT_EQ(a.cells[i].seed, b.cells[i].seed) << "cell " << i;
      EXPECT_DOUBLE_EQ(a.cells[i].clean_acc, b.cells[i].clean_acc)
          << "cell " << i;
      EXPECT_DOUBLE_EQ(a.cells[i].adv_acc, b.cells[i].adv_acc)
          << "cell " << i;
    }
  }

  static data::SynthCifar* data_;
  static models::Model* model_;
};

data::SynthCifar* SweepTest::data_ = nullptr;
models::Model* SweepTest::model_ = nullptr;

// The parity checks below compare real logits, not the constant output of
// an all-zero model.
TEST_F(SweepTest, FixtureModelLogitsDependOnInput) {
  const Tensor logits = model_->net->forward(data_->test.slice(0, 2).images);
  const int64_t classes = logits.dim(1);
  const std::vector<float> first(logits.data(), logits.data() + classes);
  const std::vector<float> second(logits.data() + classes,
                                  logits.data() + 2 * classes);
  EXPECT_NE(first, second);
}

TEST_F(SweepTest, GridShapeAndZeroEpsilonRows) {
  const auto result = run_with_threads(2);
  // 3 modes x (2 FGSM eps + 1 PGD eps) x 2 trials.
  EXPECT_EQ(result.cells.size(), 3u * 3u * 2u);
  EXPECT_EQ(result.aggregates.size(), 3u * 3u);
  for (const auto& cell : result.cells) {
    if (cell.epsilon == 0.f) {
      EXPECT_DOUBLE_EQ(cell.adv_acc, cell.clean_acc);
      EXPECT_DOUBLE_EQ(cell.al, 0.0);
    }
    EXPECT_DOUBLE_EQ(cell.al, cell.clean_acc - cell.adv_acc);
  }
  for (const auto& agg : result.aggregates) EXPECT_EQ(agg.al.n, 2);
}

// The acceptance property: a grid run twice, and with 1 lane vs N lanes, is
// bit-identical — execution order and replica count never leak into results.
TEST_F(SweepTest, BitIdenticalAcrossRunsAndThreadCounts) {
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  const auto parallel_again = run_with_threads(4);
  expect_identical(serial, parallel);
  expect_identical(parallel, parallel_again);
}

// Defense-wrapped arms (inference-time wrapper around a noisy backend)
// replicate deterministically: the wrapper is re-applied per lane and its
// noise streams pin through the same per-pass reseeding as the hardware
// hooks.
TEST_F(SweepTest, DefenseArmsReplicateDeterministically) {
  SweepGrid grid;
  grid.model = model_;
  grid.width_mult = 0.125f;
  grid.in_size = 16;
  grid.eval_set = &data_->test;
  grid.trials = 2;
  grid.backends.push_back(
      {"wrapped", "sram:sites=1,num_8t=4", "jpeg_quant:bits=4"});
  grid.backends.push_back({"ideal", "ideal"});
  grid.modes.push_back({"SH", "ideal", "wrapped"});
  grid.attacks.push_back({"fgsm", {0.15f}});

  SweepEngine::Options serial_opt;
  serial_opt.threads = 1;
  SweepEngine::Options parallel_opt;
  parallel_opt.threads = 4;
  SweepEngine serial_engine(serial_opt);
  SweepEngine parallel_engine(parallel_opt);
  const auto a = serial_engine.run(grid);
  const auto b = parallel_engine.run(grid);
  expect_identical(a, b);
}

TEST_F(SweepTest, MalformedGridsThrow) {
  SweepGrid grid = make_grid();
  grid.modes.push_back({"bad", "ideal", "nope"});
  SweepEngine engine;
  EXPECT_THROW(engine.run(grid), std::invalid_argument);

  SweepGrid dup = make_grid();
  dup.backends.push_back({"ideal", "ideal"});
  EXPECT_THROW(engine.run(dup), std::invalid_argument);

  SweepGrid no_model = make_grid();
  no_model.model = nullptr;
  EXPECT_THROW(engine.run(no_model), std::invalid_argument);

  SweepGrid no_spec = make_grid();
  no_spec.backends.push_back({"empty", ""});
  EXPECT_THROW(engine.run(no_spec), std::invalid_argument);

  // Defense specs are validated up front with the registry's token-naming
  // error, exactly like attack specs.
  SweepGrid bad_defense = make_grid();
  bad_defense.backends.push_back({"d", "ideal", "smooth:sgima=0.25"});  // rhw-lint: allow(spec) stale on purpose
  try {
    engine.run(bad_defense);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sgima"), std::string::npos)
        << e.what();
  }

  // A training-time defense arm without grid.train_data fails fast.
  SweepGrid no_train = make_grid();
  no_train.backends.push_back({"at", "ideal", "adv_train:epochs=1"});
  no_train.modes.push_back({"AT", "at", "at"});
  EXPECT_THROW(engine.run(no_train), std::invalid_argument);

  // ... and so does a calibration-hungry defense arm without a calibration
  // set — up front, not mid-grid from a worker lane.
  SweepGrid no_calib = make_grid();
  no_calib.backends.push_back({"q", "ideal", "quanos:samples=8"});
  no_calib.modes.push_back({"Q", "q", "q"});
  EXPECT_THROW(engine.run(no_calib), std::invalid_argument);
}

TEST_F(SweepTest, EngineExposesPrototypeBackends) {
  SweepEngine engine;
  (void)engine.run(make_grid());
  ASSERT_NE(engine.backend("xbar"), nullptr);
  EXPECT_EQ(engine.backend("xbar")->name(), "xbar");
  EXPECT_TRUE(engine.backend("xbar")->prepared());
  EXPECT_EQ(engine.backend("unknown"), nullptr);
}

TEST_F(SweepTest, WriteJsonEmitsCellsAndAggregates) {
  SweepEngine engine;
  const auto result = engine.run(make_grid());
  const auto path =
      (std::filesystem::temp_directory_path() / "rhw_sweep_test.json")
          .string();
  result.write_json(path, "sweep_test");
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"schema\":\"rhw-sweep-v4\""), std::string::npos);
  // v4: hand-built grids carry a null experiment stamp; driver runs embed
  // the preset + reproducing command (tests/exp/test_experiment_registry).
  EXPECT_NE(json.find("\"experiment\":null"), std::string::npos);
  EXPECT_NE(json.find("\"attack_names\""), std::string::npos);
  EXPECT_NE(json.find("\"figure\":\"sweep_test\""), std::string::npos);
  EXPECT_NE(json.find("\"SH-sram\""), std::string::npos);
  EXPECT_NE(json.find("\"al_ci95\""), std::string::npos);
  // v3: self-describing backend arms + certified-radius columns.
  EXPECT_NE(json.find("\"backends\""), std::string::npos);
  EXPECT_NE(json.find("\"defense\":\"none\""), std::string::npos);
  EXPECT_NE(json.find("\"mode_defs\""), std::string::npos);
  EXPECT_NE(json.find("\"cert_radius\""), std::string::npos);
  EXPECT_NE(json.find("\"cert_mean\""), std::string::npos);
  size_t cell_count = 0;
  for (size_t pos = 0; (pos = json.find("\"trial\":", pos)) != std::string::npos;
       ++pos) {
    ++cell_count;
  }
  EXPECT_EQ(cell_count, result.cells.size());
  std::remove(path.c_str());
}

// The stochastic-aware attacks reseed (EOT-PGD) or query (Square) the eval
// net while crafting; the per-batch measurement re-pinning in
// adversarial_accuracy must keep their sweep cells bit-identical at any lane
// count, exactly like the gradient attacks.
TEST_F(SweepTest, StochasticAwareAttacksBitIdenticalAcrossLanes) {
  SweepGrid grid;
  grid.model = model_;
  grid.width_mult = 0.125f;
  grid.in_size = 16;
  grid.eval_set = &data_->test;
  grid.base.batch_size = 16;
  grid.backends.push_back({"ideal", "ideal"});
  grid.backends.push_back({"sram", "sram:sites=2,num_8t=2,vdd=0.6"});
  grid.modes.push_back({"SH", "ideal", "sram"});
  grid.modes.push_back({"HH", "sram", "sram"});
  grid.attacks.push_back({"eot_pgd:steps=2,samples=2", {0.1f}});
  grid.attacks.push_back({"square:queries=10", {0.1f}});
  grid.attacks.push_back({"mifgsm:steps=2", {0.1f}});

  SweepEngine::Options serial_opt;
  serial_opt.threads = 1;
  SweepEngine::Options parallel_opt;
  parallel_opt.threads = 4;
  SweepEngine serial_engine(serial_opt);
  SweepEngine parallel_engine(parallel_opt);
  const auto a = serial_engine.run(grid);
  const auto b = parallel_engine.run(grid);
  expect_identical(a, b);
}

// A typo'd attack spec must fail the run up front with the registry's
// token-naming error, not abort mid-grid from a worker lane.
TEST_F(SweepTest, MalformedAttackSpecThrowsBeforeEvaluating) {
  SweepGrid grid = make_grid();
  grid.attacks.push_back({"pgd:stpes=7", {0.1f}});  // rhw-lint: allow(spec) stale on purpose
  SweepEngine engine;
  try {
    engine.run(grid);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stpes"), std::string::npos)
        << e.what();
  }

  SweepGrid unknown = make_grid();
  unknown.attacks.push_back({"cw", {0.1f}});
  EXPECT_THROW(engine.run(unknown), std::invalid_argument);
}

// curve() matches attack arms through the registry grammar, not verbatim
// text: trailing commas, reordered knobs and empty items all resolve to the
// same row; a genuine miss names the offending spec and the grid's rows.
TEST_F(SweepTest, CurveNormalizesAttackSpecs) {
  SweepGrid grid;
  grid.model = model_;
  grid.width_mult = 0.125f;
  grid.in_size = 16;
  grid.eval_set = &data_->test;
  grid.base.batch_size = 16;
  grid.backends.push_back({"ideal", "ideal"});
  grid.modes.push_back({"SW", "ideal", "ideal"});
  grid.attacks.push_back({"pgd:steps=2,alpha=0.02", {0.1f}});
  SweepEngine engine;
  const auto result = engine.run(grid);

  const auto exact = result.curve("SW", "pgd:steps=2,alpha=0.02");
  const auto trailing = result.curve("SW", "pgd:steps=2,alpha=0.02,");
  const auto reordered = result.curve("SW", "pgd:alpha=0.02,steps=2");
  ASSERT_EQ(exact.points.size(), 1u);
  EXPECT_DOUBLE_EQ(trailing.points[0].adv_acc, exact.points[0].adv_acc);
  EXPECT_DOUBLE_EQ(reordered.points[0].adv_acc, exact.points[0].adv_acc);

  // A genuine miss is a token-naming error listing the grid's rows.
  try {
    (void)result.curve("SW", "pgd:steps=7");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pgd:steps=7"), std::string::npos) << what;
    EXPECT_NE(what.find("pgd:steps=2,alpha=0.02"), std::string::npos) << what;
  }
  try {
    (void)result.curve("nope", "pgd:steps=2,alpha=0.02");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos)
        << e.what();
  }
}

// Threads of this process, or 0 where /proc/self/task is not there.
int64_t process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return std::distance(it, std::filesystem::directory_iterator());
}

// An identity "attack" that records the most threads the process had while a
// cell was crafting.
std::atomic<int64_t> g_peak_threads{0};

class ThreadProbeAttack final : public attacks::Attack {
 public:
  std::string name() const override { return "ThreadProbe"; }
  float epsilon() const override { return eps_; }
  void set_epsilon(float eps) override { eps_ = eps; }
  Tensor perturb(const attacks::AttackContext&, const Tensor& x,
                 const std::vector<int64_t>&) const override {
    const int64_t now = process_threads();
    int64_t peak = g_peak_threads.load();
    while (now > peak && !g_peak_threads.compare_exchange_weak(peak, now)) {
    }
    return x;
  }

 private:
  float eps_ = 0.f;
};

// The cell pool starts one worker per lane that gets a task, beyond the
// caller: a two-task grid at 16 lanes adds one thread, not fifteen.
TEST_F(SweepTest, CellPoolIsSizedToTheLanesThatGetATask) {
  if (process_threads() == 0) GTEST_SKIP() << "no /proc/self/task";
  attacks::AttackRegistry::instance().add(
      "thread_probe", [](const core::SpecOptions&) -> attacks::AttackPtr {
        return std::make_unique<ThreadProbeAttack>();
      });
  SweepGrid grid;
  grid.model = model_;
  grid.width_mult = 0.125f;
  grid.in_size = 16;
  grid.eval_set = &data_->test;
  grid.base.batch_size = 16;
  grid.backends.push_back({"ideal", "ideal"});
  grid.modes.push_back({"SW", "ideal", "ideal"});
  grid.attacks.push_back({"thread_probe", {0.1f}});  // one clean + one cell

  (void)global_pool();  // started before the baseline count
  const int64_t before = process_threads();
  g_peak_threads.store(0);
  SweepEngine::Options opt;
  opt.threads = 16;
  SweepEngine engine(opt);
  const SweepResult result = engine.run(grid);
  EXPECT_EQ(result.lanes, 16u);
  ASSERT_GT(g_peak_threads.load(), 0);
  EXPECT_LE(g_peak_threads.load(), before + 1);
}

// Restores (or unsets) RHW_SWEEP_THREADS when the test ends.
class ScopedSweepThreadsEnv {
 public:
  ScopedSweepThreadsEnv() {
    // rhw-lint: allow(env) — saved so the test can restore it
    if (const char* v = std::getenv("RHW_SWEEP_THREADS")) saved_ = v;
  }
  ~ScopedSweepThreadsEnv() {
    if (saved_) {
      setenv("RHW_SWEEP_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("RHW_SWEEP_THREADS");
    }
  }
  ScopedSweepThreadsEnv(const ScopedSweepThreadsEnv&) = delete;
  ScopedSweepThreadsEnv& operator=(const ScopedSweepThreadsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(SweepThreadsEnv, ParsesWholeLaneCountsOrFallsBack) {
  const ScopedSweepThreadsEnv restore;
  unsetenv("RHW_SWEEP_THREADS");
  EXPECT_EQ(sweep_threads_env(3), 3u);
  setenv("RHW_SWEEP_THREADS", "", 1);
  EXPECT_EQ(sweep_threads_env(3), 3u);
  setenv("RHW_SWEEP_THREADS", "16", 1);
  EXPECT_EQ(sweep_threads_env(3), 16u);
  setenv("RHW_SWEEP_THREADS",
         std::to_string(kMaxSweepThreads).c_str(), 1);
  EXPECT_EQ(sweep_threads_env(3), kMaxSweepThreads);
}

TEST(SweepThreadsEnv, MalformedValuesThrowNamedError) {
  const ScopedSweepThreadsEnv restore;
  for (const std::string& bad : std::vector<std::string>{
           "8x", "abc", "0", "-3", "+8", " 8", "1.5",
           std::to_string(kMaxSweepThreads + 1), "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    setenv("RHW_SWEEP_THREADS", bad.c_str(), 1);
    try {
      (void)sweep_threads_env(3);
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "RHW_SWEEP_THREADS='" + bad +
                    "': expected a whole lane count in [1, " +
                    std::to_string(kMaxSweepThreads) + "]");
    }
  }
}

TEST(SweepSeeds, DerivationIsCoordinateStable) {
  const uint64_t base = 0xADE5;
  EXPECT_EQ(sweep_cell_seed(base, 1, 2, 3, 0), sweep_cell_seed(base, 1, 2, 3, 0));
  EXPECT_NE(sweep_cell_seed(base, 0, 0, 0, 0), sweep_cell_seed(base, 1, 0, 0, 0));
  EXPECT_NE(sweep_cell_seed(base, 0, 0, 0, 0), sweep_cell_seed(base, 0, 1, 0, 0));
  EXPECT_NE(sweep_cell_seed(base, 0, 0, 0, 0), sweep_cell_seed(base, 0, 0, 1, 0));
  EXPECT_NE(sweep_cell_seed(base, 0, 0, 0, 0), sweep_cell_seed(base, 0, 0, 0, 1));
  EXPECT_NE(sweep_clean_seed(base, 0), sweep_clean_seed(base, 1));
  // Nearby base seeds decorrelate (the old additive scheme collided).
  EXPECT_NE(sweep_cell_seed(base, 0, 0, 0, 0),
            sweep_cell_seed(base + 0x9E37, 0, 0, 0, 0));
}

}  // namespace
}  // namespace rhw::exp
