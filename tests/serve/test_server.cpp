#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "data/synth_cifar.hpp"
#include "defenses/registry.hpp"
#include "hw/registry.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"
#include "nn/module.hpp"
#include "serve/batcher.hpp"

namespace rhw::serve {
namespace {

// -- Batcher: the micro-batching invariants, in virtual time ------------------

PendingRequest make_request(uint64_t id, uint64_t enqueue_us) {
  return {id, Tensor({1, 1, 2, 2}), enqueue_us};
}

TEST(Batcher, SizeTriggerFiresAtBatchMaxAndNeverExceedsIt) {
  Batcher batcher({4, 1000});
  for (uint64_t i = 0; i < 11; ++i) batcher.push(make_request(i, 100));

  // Queue holds 11 >= batch_max: ready immediately, oldest four, FIFO.
  std::vector<PendingRequest> batch = batcher.pop_ready(100);
  ASSERT_EQ(batch.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(batch[i].id, i);

  batch = batcher.pop_ready(100);
  ASSERT_EQ(batch.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(batch[i].id, 4 + i);

  // Three left: below batch_max and before the deadline — not ready.
  EXPECT_TRUE(batcher.pop_ready(100).empty());
  EXPECT_EQ(batcher.depth(), 3u);
}

TEST(Batcher, LingerDeadlineIsHonoredExactly) {
  Batcher batcher({16, 1000});
  batcher.push(make_request(0, 250));
  batcher.push(make_request(1, 400));

  EXPECT_EQ(batcher.next_deadline_us(), 1250u);  // oldest enqueue + linger
  EXPECT_TRUE(batcher.pop_ready(1249).empty());  // one tick early: not ready

  const std::vector<PendingRequest> batch = batcher.pop_ready(1250);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_EQ(batcher.next_deadline_us(), UINT64_MAX);  // empty queue
}

TEST(Batcher, ZeroLingerServesImmediately) {
  Batcher batcher({16, 0});
  batcher.push(make_request(0, 77));
  EXPECT_EQ(batcher.pop_ready(77).size(), 1u);
}

TEST(Batcher, FlushDrainsPartialBatchesInOrder) {
  Batcher batcher({4, 1000000});
  for (uint64_t i = 0; i < 6; ++i) batcher.push(make_request(i, 10));
  ASSERT_EQ(batcher.pop_ready(20).size(), 4u);  // size trigger fires first
  // Two left, deadline far away: only flush drains them.
  EXPECT_TRUE(batcher.pop_ready(20).empty());
  const std::vector<PendingRequest> tail = batcher.pop_ready(20, true);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].id, 4u);
  EXPECT_EQ(tail[1].id, 5u);
  EXPECT_EQ(batcher.depth(), 0u);
  EXPECT_TRUE(batcher.pop_ready(20, true).empty());  // flush on empty: empty
}

TEST(Batcher, DegeneratePolicyThrows) {
  EXPECT_THROW(Batcher({0, 1000}), std::invalid_argument);
  EXPECT_THROW(Batcher({4, -1}), std::invalid_argument);
}

// -- Server: parity, determinism, drain ---------------------------------------

// One small untrained model + dataset shared by every server test (the sweep
// suite's fixture shape — determinism, not accuracy, is under test).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 4;
    dcfg.test_per_class = 8;
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

  static constexpr float kWidth = 0.125f;
  static constexpr int64_t kIn = 16;
  static constexpr uint64_t kSeed = 0xADE5;

  // The first `n` eval images as [1,C,H,W] request tensors.
  static std::vector<Tensor> eval_inputs(int64_t n) {
    const Tensor& images = data_->test.images;
    const int64_t sample = images.dim(1) * images.dim(2) * images.dim(3);
    std::vector<Tensor> inputs;
    for (int64_t i = 0; i < n; ++i) {
      inputs.push_back(Tensor::from_span(
          {1, images.dim(1), images.dim(2), images.dim(3)},
          std::span<const float>(images.data() + i * sample,
                                 static_cast<size_t>(sample))));
    }
    return inputs;
  }

  // No calibration set: the SRAM arm then installs its fallback hybrid word
  // on the first sites (mode 3), same as the serve presets' uncalibrated
  // arms — which keeps it stochastic on this tiny fixture.
  static ServeArm make_arm(const std::string& hw, const std::string& defense) {
    ServeArm arm;
    arm.key = "test";
    arm.hw = hw;
    arm.defense = defense;
    arm.train_data = data_;
    return arm;
  }

  // A single replica built exactly the way Server builds its prototype lane,
  // for serial reference forwards.
  struct Reference {
    models::Model model;
    hw::BackendPtr inner;
    hw::BackendPtr wrapped;
    hw::HardwareBackend* serving() const {
      return wrapped ? wrapped.get() : inner.get();
    }
  };

  static Reference make_reference(const ServeArm& arm) {
    Reference ref;
    const defenses::DefensePtr defense =
        defenses::make_defense(arm.defense.empty() ? "none" : arm.defense);
    defenses::DefenseContext dctx;
    dctx.train_data = arm.train_data;
    dctx.calibration = arm.calibration;
    ref.model = models::clone_model(*model_, kWidth, kIn);
    defense->harden(ref.model, dctx);
    ref.inner = hw::make_backend(arm.hw);
    ref.inner->prepare(ref.model, arm.calibration);
    ref.wrapped = defense->wrap(*ref.inner);
    return ref;
  }

  // Runs a server over the inputs (submitted back-to-back, ids 0..n-1) and
  // returns its replies sorted by id.
  static std::vector<Reply> serve_all(const ServeArm& arm, unsigned lanes,
                                      const std::vector<Tensor>& inputs,
                                      ServeReport* report = nullptr) {
    ServerConfig cfg;
    cfg.lanes = lanes;
    cfg.batch_max = 4;
    cfg.linger_us = 200;
    cfg.seed = kSeed;
    Server server(*model_, kWidth, kIn, arm, cfg);
    server.start();
    for (const Tensor& input : inputs) server.submit(input);
    server.shutdown();
    if (report != nullptr) *report = server.report();
    return server.replies();
  }

  static data::SynthCifar* data_;
  static models::Model* model_;
};

data::SynthCifar* ServerTest::data_ = nullptr;
models::Model* ServerTest::model_ = nullptr;

// The parity checks below compare real logits, not the constant output of
// an all-zero model.
TEST_F(ServerTest, FixtureModelLogitsDependOnInput) {
  const Tensor logits = model_->net->forward(data_->test.slice(0, 2).images);
  const int64_t classes = logits.dim(1);
  const std::vector<float> first(logits.data(), logits.data() + classes);
  const std::vector<float> second(logits.data() + classes,
                                  logits.data() + 2 * classes);
  EXPECT_NE(first, second);
}

// A noise-free arm serves through the fused batched forward; every reply must
// be bit-identical to a serial forward of the same request on an identically
// built replica — micro-batch composition must not leak into results.
TEST_F(ServerTest, FusedRepliesMatchSerialForwardBitwise) {
  const std::vector<Tensor> inputs = eval_inputs(12);
  ServeReport report;
  const std::vector<Reply> replies =
      serve_all(make_arm("ideal", ""), 3, inputs, &report);
  ASSERT_EQ(replies.size(), inputs.size());
  EXPECT_FALSE(report.stochastic);

  const Reference ref = make_reference(make_arm("ideal", ""));
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Tensor logits = ref.serving()->forward(inputs[i]);
    const int64_t predicted = logits.argmax_rows()[0];
    EXPECT_EQ(replies[i].id, i);
    EXPECT_EQ(replies[i].predicted, predicted) << "request " << i;
    EXPECT_EQ(replies[i].score, logits.data()[predicted]) << "request " << i;
    EXPECT_GE(replies[i].batch_size, 1u);
    EXPECT_LE(replies[i].batch_size, 4u);  // never exceeds batch_max
  }
}

// Defense-wrapped arms serve from the same spec strings as sweeps and keep
// the same serial parity.
TEST_F(ServerTest, DefenseWrappedArmMatchesSerialForward) {
  const ServeArm arm = make_arm("ideal", "jpeg_quant:bits=4");
  const std::vector<Tensor> inputs = eval_inputs(8);
  const std::vector<Reply> replies = serve_all(arm, 2, inputs);
  ASSERT_EQ(replies.size(), inputs.size());

  const Reference ref = make_reference(arm);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Tensor logits = ref.serving()->forward(inputs[i]);
    EXPECT_EQ(replies[i].predicted, logits.argmax_rows()[0]) << "request " << i;
    EXPECT_EQ(replies[i].score, logits.data()[replies[i].predicted])
        << "request " << i;
  }
}

// A stochastic arm pins request id i to request_seed(seed, i): the reply must
// match a serial forward under the same derived seed, independent of lane
// assignment and batch shape.
TEST_F(ServerTest, StochasticRepliesMatchPerRequestSeededSerialForward) {
  const ServeArm arm = make_arm("sram:sites=2,num_8t=2,vdd=0.6", "");
  const std::vector<Tensor> inputs = eval_inputs(10);
  ServeReport report;
  const std::vector<Reply> replies = serve_all(arm, 4, inputs, &report);
  ASSERT_EQ(replies.size(), inputs.size());
  EXPECT_TRUE(report.stochastic);

  const Reference ref = make_reference(arm);
  for (size_t i = 0; i < inputs.size(); ++i) {
    nn::reseed_noise_streams(ref.serving()->module(),
                             Server::request_seed(kSeed, i));
    const Tensor logits = ref.serving()->forward(inputs[i]);
    EXPECT_EQ(replies[i].predicted, logits.argmax_rows()[0]) << "request " << i;
    EXPECT_EQ(replies[i].score, logits.data()[replies[i].predicted])
        << "request " << i;
  }
}

// Same seed => same per-request outputs at any lane count: one lane and eight
// lanes batch very differently, but replies and digests must agree.
TEST_F(ServerTest, RepliesAreIdenticalAcrossLaneCounts) {
  const std::vector<Tensor> inputs = eval_inputs(16);
  for (const std::string hw : {"ideal", "sram:sites=2,num_8t=2,vdd=0.6"}) {
    ServeReport one_report, eight_report;
    const std::vector<Reply> one =
        serve_all(make_arm(hw, ""), 1, inputs, &one_report);
    const std::vector<Reply> eight =
        serve_all(make_arm(hw, ""), 8, inputs, &eight_report);
    ASSERT_EQ(one.size(), inputs.size()) << hw;
    ASSERT_EQ(eight.size(), inputs.size()) << hw;
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(one[i].predicted, eight[i].predicted) << hw << " request " << i;
      EXPECT_EQ(one[i].score, eight[i].score) << hw << " request " << i;
    }
    EXPECT_EQ(one_report.digest, eight_report.digest) << hw;
    EXPECT_EQ(one_report.completed, inputs.size());
  }
}

// shutdown() drains: every submitted request completes even when the linger
// deadline is far in the future and the size trigger never fires.
TEST_F(ServerTest, ShutdownDrainsTheQueue) {
  ServerConfig cfg;
  cfg.lanes = 2;
  cfg.batch_max = 64;
  cfg.linger_us = 60 * 1000 * 1000;  // a minute: only the flush can drain
  cfg.seed = kSeed;
  Server server(*model_, kWidth, kIn, make_arm("ideal", ""), cfg);
  server.start();
  const std::vector<Tensor> inputs = eval_inputs(8);
  std::vector<uint64_t> ids;
  for (int round = 0; round < 3; ++round) {
    for (const Tensor& input : inputs) ids.push_back(server.submit(input));
  }
  server.shutdown();

  const std::vector<Reply> replies = server.replies();
  ASSERT_EQ(replies.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(replies[i].id, ids[i]);  // sorted by id, none missing
    EXPECT_GE(replies[i].done_us, replies[i].enqueue_us);
    EXPECT_EQ(replies[i].latency_us,
              replies[i].done_us - replies[i].enqueue_us);
  }
  EXPECT_LT(server.report().mean_batch, 65.0);
}

TEST_F(ServerTest, SubmitAfterShutdownThrows) {
  Server server(*model_, kWidth, kIn, make_arm("ideal", ""), {1, 4, 100, 1});
  server.start();
  server.submit(eval_inputs(1)[0]);
  server.shutdown();
  server.shutdown();  // idempotent
  EXPECT_THROW(server.submit(eval_inputs(1)[0]), std::logic_error);
  EXPECT_EQ(server.replies().size(), 1u);
}

TEST_F(ServerTest, ConstructionAndStartGuards) {
  EXPECT_THROW(
      Server(*model_, kWidth, kIn, make_arm("ideal", ""), {0, 4, 100, 1}),
      std::invalid_argument);
  Server server(*model_, kWidth, kIn, make_arm("ideal", ""), {1, 4, 100, 1});
  server.start();
  EXPECT_THROW(server.start(), std::logic_error);
  EXPECT_EQ(server.arm_name(), hw::make_backend("ideal")->name());
  server.shutdown();

  // A bad hw spec surfaces the registry's token-naming error from start().
  Server bad(*model_, kWidth, kIn, make_arm("warp-drive", ""), {1, 4, 100, 1});
  EXPECT_THROW(bad.start(), std::invalid_argument);
}

// [C,H,W] submissions are accepted and served like [1,C,H,W] ones.
TEST_F(ServerTest, SubmitAcceptsUnbatchedImages) {
  const std::vector<Tensor> inputs = eval_inputs(2);
  Server server(*model_, kWidth, kIn, make_arm("ideal", ""), {1, 4, 100, kSeed});
  server.start();
  server.submit(
      inputs[0].reshaped({inputs[0].dim(1), inputs[0].dim(2), inputs[0].dim(3)}));
  EXPECT_THROW(server.submit(Tensor({4, 4})), std::invalid_argument);
  server.shutdown();
  const std::vector<Reply> replies = server.replies();
  ASSERT_EQ(replies.size(), 1u);

  const std::vector<Reply> batched =
      serve_all(make_arm("ideal", ""), 1, {inputs[0]});
  EXPECT_EQ(replies[0].predicted, batched[0].predicted);
  EXPECT_EQ(replies[0].score, batched[0].score);
}

}  // namespace
}  // namespace rhw::serve
