// Defense arms inside the sweep engine: the acceptance property is that a
// "smooth:" arm over an "sram:" backend — a randomized defense stacked on a
// stochastic substrate — reproduces bit-identically at any lane count,
// certified-radius column included.
#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"
#include "data/synth_cifar.hpp"
#include "defenses/registry.hpp"
#include "exp/sweep.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"

namespace rhw::defenses {
namespace {

class DefenseSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 8;
    dcfg.test_per_class = 10;
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

  // The smoothed-noisy grid: smoothing over SRAM bit errors, SH and
  // white-box-on-the-defense pairings, an eps == 0 row, two trials.
  static exp::SweepGrid smoothed_sram_grid() {
    exp::SweepGrid grid;
    grid.model = model_;
    grid.width_mult = 0.125f;
    grid.in_size = 16;
    grid.eval_set = &data_->test;
    grid.base.batch_size = 16;
    grid.trials = 2;
    grid.backends.push_back({"ideal", "ideal"});
    grid.backends.push_back({"smoothsram", "sram:sites=2,num_8t=2,vdd=0.6",
                             "smooth:sigma=0.2,samples=3"});
    grid.modes.push_back({"SH-smooth", "ideal", "smoothsram"});
    grid.modes.push_back({"WB-smooth", "smoothsram", "smoothsram"});
    grid.attacks.push_back({"fgsm", {0.f, 0.1f}});
    return grid;
  }

  static exp::SweepResult run_with_threads(const exp::SweepGrid& grid,
                                           unsigned threads) {
    exp::SweepEngine::Options opt;
    opt.threads = threads;
    exp::SweepEngine engine(opt);
    return engine.run(grid);
  }

  static void expect_identical(const exp::SweepResult& a,
                               const exp::SweepResult& b) {
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (size_t i = 0; i < a.cells.size(); ++i) {
      EXPECT_EQ(a.cells[i].seed, b.cells[i].seed) << "cell " << i;
      EXPECT_DOUBLE_EQ(a.cells[i].clean_acc, b.cells[i].clean_acc)
          << "cell " << i;
      EXPECT_DOUBLE_EQ(a.cells[i].adv_acc, b.cells[i].adv_acc)
          << "cell " << i;
      EXPECT_DOUBLE_EQ(a.cells[i].cert_radius, b.cells[i].cert_radius)
          << "cell " << i;
    }
  }

  static data::SynthCifar* data_;
  static models::Model* model_;
};

data::SynthCifar* DefenseSweepTest::data_ = nullptr;
models::Model* DefenseSweepTest::model_ = nullptr;

// The parity checks below compare real logits, not the constant output of
// an all-zero model.
TEST_F(DefenseSweepTest, FixtureModelLogitsDependOnInput) {
  const Tensor logits = model_->net->forward(data_->test.slice(0, 2).images);
  const int64_t classes = logits.dim(1);
  const std::vector<float> first(logits.data(), logits.data() + classes);
  const std::vector<float> second(logits.data() + classes,
                                  logits.data() + 2 * classes);
  EXPECT_NE(first, second);
}

// The acceptance criterion: a smooth-over-sram arm is bit-identical at 1 vs
// N lanes — the smoothing noise, the bit-error noise, and the certification
// stream all derive from grid coordinates, never from scheduling.
TEST_F(DefenseSweepTest, SmoothedNoisyArmBitIdenticalAcrossLanes) {
  const auto grid = smoothed_sram_grid();
  const auto serial = run_with_threads(grid, 1);
  const auto parallel = run_with_threads(grid, 4);
  const auto parallel_again = run_with_threads(grid, 4);
  expect_identical(serial, parallel);
  expect_identical(parallel, parallel_again);
}

TEST_F(DefenseSweepTest, CertifiedRadiusColumnIsPopulated) {
  const auto result = run_with_threads(smoothed_sram_grid(), 2);
  // The smoothed arm certifies on every cell (shared per trial); the ideal
  // arm does not exist as an eval here, so all cells carry the value.
  bool any_positive = false;
  for (const auto& cell : result.cells) {
    EXPECT_GE(cell.cert_radius, 0.0);
    if (cell.cert_radius > 0.0) any_positive = true;
  }
  // Untrained model: votes can still be unanimous on some examples; but do
  // not require positivity of the mean — only that aggregates carry it
  // consistently.
  for (const auto& agg : result.aggregates) {
    EXPECT_EQ(agg.cert.n, 2);
  }
  (void)any_positive;
  // Backend info is self-describing.
  ASSERT_EQ(result.backends.size(), 2u);
  EXPECT_EQ(result.backends[1].defense, "smooth:sigma=0.2,samples=3");
  EXPECT_EQ(result.backends[1].defense_name, "Smooth");
  EXPECT_EQ(result.backends[0].defense, "none");
}

// A non-certifying grid reports an all-zero cert column, not garbage.
TEST_F(DefenseSweepTest, NonCertifyingArmsReportZeroRadius) {
  exp::SweepGrid grid;
  grid.model = model_;
  grid.width_mult = 0.125f;
  grid.in_size = 16;
  grid.eval_set = &data_->test;
  grid.backends.push_back({"ideal", "ideal"});
  grid.backends.push_back({"disc", "ideal", "jpeg_quant:bits=4"});
  grid.modes.push_back({"disc", "disc", "disc"});
  grid.attacks.push_back({"fgsm", {0.1f}});
  const auto result = run_with_threads(grid, 2);
  for (const auto& cell : result.cells) {
    EXPECT_DOUBLE_EQ(cell.cert_radius, 0.0);
  }
}

TEST_F(DefenseSweepTest, TrainingTimeDefenseArmRunsAndReplicates) {
  exp::SweepGrid grid;
  grid.model = model_;
  grid.width_mult = 0.125f;
  grid.in_size = 16;
  grid.eval_set = &data_->test;
  grid.train_data = data_;
  grid.base.batch_size = 16;
  grid.backends.push_back(
      {"at", "ideal", "adv_train:attack=fgsm,eps=0.05,epochs=1"});
  grid.modes.push_back({"AT", "at", "at"});
  grid.attacks.push_back({"fgsm", {0.1f}});
  // Hardened weights clone across lanes: serial and parallel runs agree.
  const auto serial = run_with_threads(grid, 1);
  const auto parallel = run_with_threads(grid, 3);
  expect_identical(serial, parallel);
}

}  // namespace
}  // namespace rhw::defenses
