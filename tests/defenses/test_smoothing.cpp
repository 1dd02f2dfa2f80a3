// Randomized-smoothing wrapper: vote semantics, per-pass determinism through
// the hook-seeder channel, composition over noisy backends, and the
// certification entry point.
#include "defenses/smoothing.hpp"

#include <gtest/gtest.h>

#include "attacks/evaluate.hpp"
#include "core/rng.hpp"
#include "data/synth_cifar.hpp"
#include "defenses/input_transforms.hpp"
#include "defenses/registry.hpp"
#include "hw/registry.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"

namespace rhw::defenses {
namespace {

class SmoothingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 4;
    dcfg.test_per_class = 8;
    dcfg.image_size = 16;
    data_ = new data::SynthCifar(data::make_synth_cifar(dcfg));
    model_ = new models::Model(models::build_model("vgg8", 4, 0.125f, 16));
    model_->net->set_training(false);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  static data::SynthCifar* data_;
  static models::Model* model_;
};

data::SynthCifar* SmoothingTest::data_ = nullptr;
models::Model* SmoothingTest::model_ = nullptr;

TEST_F(SmoothingTest, VotesSumToSamples) {
  SmoothConfig cfg;
  cfg.sigma = 0.1f;
  cfg.samples = 5;
  SmoothedModule smoothed(*model_->net, cfg);
  const auto batch = data_->test.slice(0, 4);
  const Tensor counts = smoothed.votes(batch.images);
  ASSERT_EQ(counts.dim(0), 4);
  ASSERT_EQ(counts.dim(1), 4);
  for (int64_t i = 0; i < counts.dim(0); ++i) {
    float total = 0.f;
    for (int64_t c = 0; c < counts.dim(1); ++c) total += counts.at(i, c);
    EXPECT_FLOAT_EQ(total, 5.f);
  }
}

// The smoothing noise stream pins through reseed_noise_streams like any
// hardware hook: same seed -> identical votes, different seed -> (almost
// surely) a different noise draw.
TEST_F(SmoothingTest, ReseedPinsTheNoiseStream) {
  SmoothConfig cfg;
  cfg.sigma = 0.3f;
  cfg.samples = 3;
  SmoothedModule smoothed(*model_->net, cfg);
  const auto batch = data_->test.slice(0, 6);

  nn::reseed_noise_streams(smoothed, 0x5EED);
  const Tensor a = smoothed.votes(batch.images);
  nn::reseed_noise_streams(smoothed, 0x5EED);
  const Tensor b = smoothed.votes(batch.images);
  ASSERT_TRUE(a.same_shape(b));
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

// Wrapping a prepared noisy backend: the wrapper serves a module, proxies
// the energy report, and composes the smoothing noise with the substrate's.
TEST_F(SmoothingTest, WrapsNoisyBackend) {
  models::Model clone = models::clone_model(*model_, 0.125f, 16);
  auto sram = hw::make_backend("sram:sites=2,num_8t=2,vdd=0.6");
  sram->prepare(clone);

  auto defense = make_defense("smooth:sigma=0.2,samples=4");
  hw::BackendPtr wrapped = defense->wrap(*sram);
  ASSERT_NE(wrapped, nullptr);
  EXPECT_EQ(wrapped->name(), "smooth+sram");
  EXPECT_TRUE(wrapped->prepared());
  EXPECT_EQ(wrapped->energy_report().backend, "sram");

  // Evaluation through the wrapper is a pure function of (nets, data, cfg).
  const double a =
      attacks::clean_accuracy(wrapped->module(), data_->test, 16, 0xC0FE);
  const double b =
      attacks::clean_accuracy(wrapped->module(), data_->test, 16, 0xC0FE);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(SmoothingTest, CertificationIsDeterministicAndBounded) {
  models::Model clone = models::clone_model(*model_, 0.125f, 16);
  auto ideal = hw::make_backend("ideal");
  ideal->prepare(clone);

  SmoothConfig cfg;
  cfg.sigma = 0.15f;
  cfg.samples = 8;
  cfg.alpha = 0.01;
  SmoothedBackend smoothed(*ideal, cfg);

  const double r1 = smoothed.mean_certified_radius(data_->test, 16, 0xCE27);
  const double r2 = smoothed.mean_certified_radius(data_->test, 16, 0xCE27);
  EXPECT_DOUBLE_EQ(r1, r2);
  // Bounded by the unanimous-vote radius.
  const double r_max = certified_radius(cfg.sigma, cfg.samples, cfg.samples,
                                        cfg.alpha);
  EXPECT_GE(r1, 0.0);
  EXPECT_LE(r1, r_max);
}

// Wrapping before prepare() must fail with the seam's invalid_argument
// contract (naming the defense), not a logic_error from deep inside
// module().
TEST_F(SmoothingTest, WrappingUnpreparedBackendThrows) {
  auto unprepared = hw::make_backend("ideal");
  auto defense = make_defense("smooth:sigma=0.1,samples=2");
  try {
    (void)defense->wrap(*unprepared);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Smooth"), std::string::npos)
        << e.what();
  }
}

// Straight-through gradients: the bulk copies run in an InferenceScope, the
// tail copy does not, so backward returns exactly the inner model's input
// gradient at the tail's noisy copy, the last draw of the smoothing stream.
TEST_F(SmoothingTest, BackwardIsStraightThrough) {
  models::Model model = models::build_model("vgg8", 4, 0.125f, 16);
  RandomEngine init(3);
  nn::kaiming_init(*model.net, init);
  model.net->set_training(false);
  SmoothConfig cfg;
  cfg.sigma = 0.1f;
  cfg.samples = 3;
  SmoothedModule smoothed(*model.net, cfg);
  const auto batch = data_->test.slice(0, 2);
  constexpr uint64_t kSeed = 0x7A11;
  nn::reseed_noise_streams(smoothed, kSeed);
  const Tensor logits = smoothed.forward(batch.images);
  const Tensor grad_out(logits.shape(), 1.f);
  const Tensor grad_in = smoothed.backward(grad_out);

  // Replay the stream: the wrapper is the tree root (depth-first index 0),
  // its seeder the post-hook sub-stream 0; the bulk copies draw first.
  RandomEngine rng(derive_stream_seed(derive_stream_seed(kSeed, 0), 0));
  Shape bulk_shape = batch.images.shape();
  bulk_shape[0] *= cfg.samples - 1;
  Tensor bulk(bulk_shape);
  add_gaussian_noise(bulk, cfg.sigma, cfg.clip_lo, cfg.clip_hi, rng);
  Tensor tail = batch.images;
  add_gaussian_noise(tail, cfg.sigma, cfg.clip_lo, cfg.clip_hi, rng);
  (void)model.net->forward(tail);
  const Tensor expected = model.net->backward(grad_out);

  ASSERT_TRUE(grad_in.same_shape(expected));
  EXPECT_GT(grad_in.l2_norm(), 0.0);
  for (int64_t i = 0; i < grad_in.numel(); ++i) {
    ASSERT_EQ(grad_in[i], expected[i]) << i;
  }
}

// votes() runs every copy in an InferenceScope: the inner model keeps no
// backward state, so a stray backward fails by name instead of reading a
// stale cache.
TEST_F(SmoothingTest, VotesKeepNoBackwardState) {
  models::Model model = models::build_model("vgg8", 4, 0.125f, 16);
  model.net->set_training(false);
  SmoothConfig cfg;
  cfg.sigma = 0.1f;
  cfg.samples = 3;
  SmoothedModule smoothed(*model.net, cfg);
  const auto batch = data_->test.slice(0, 2);
  const Tensor logits = model.net->forward(batch.images);  // leaves caches
  (void)smoothed.votes(batch.images);
  try {
    (void)model.net->backward(Tensor(logits.shape(), 1.f));
    ADD_FAILURE() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("InferenceScope"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rhw::defenses
