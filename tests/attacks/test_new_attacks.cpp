// Behavioral coverage for the stochastic-aware attacks introduced with the
// attack seam: MI-FGSM, the gradient-free Square attack, and noisy-gradient
// EOT-PGD.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "attacks/mifgsm.hpp"
#include "attacks/pgd.hpp"
#include "attacks/registry.hpp"
#include "attacks/square.hpp"
#include "core/rng.hpp"
#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"

namespace rhw::attacks {
namespace {

nn::Sequential small_net(uint64_t seed) {
  nn::Sequential net;
  net.emplace<nn::Linear>(8, 16);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(16, 3);
  rhw::RandomEngine rng(seed);
  nn::kaiming_init(net, rng);
  net.set_training(false);
  return net;
}

std::vector<int64_t> labels_mod3(int n) {
  std::vector<int64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(i % 3);
  return out;
}

float batch_loss(nn::Module& net, const Tensor& x,
                 const std::vector<int64_t>& labels) {
  nn::SoftmaxCrossEntropy loss;
  return loss.forward(net.forward(x), labels);
}

// -- MI-FGSM ------------------------------------------------------------------

TEST(MiFgsm, ZeroEpsilonIsIdentity) {
  auto net = small_net(1);
  rhw::RandomEngine rng(2);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng);
  MiFgsmConfig cfg;
  cfg.epsilon = 0.f;
  const Tensor adv = mifgsm(net, x, {0, 1, 2, 0}, cfg);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(adv[i], x[i]);
}

TEST(MiFgsm, StaysInsideEpsilonBallAndPixelRange) {
  auto net = small_net(3);
  rhw::RandomEngine rng(4);
  const Tensor x = Tensor::rand_uniform({8, 8}, rng, 0.2f, 0.8f);
  MiFgsmConfig cfg;
  cfg.epsilon = 0.06f;
  cfg.steps = 8;
  const Tensor adv = mifgsm(net, x, std::vector<int64_t>(8, 1), cfg);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(adv[i] - x[i]), cfg.epsilon + 1e-6f);
    EXPECT_GE(adv[i], 0.f);
    EXPECT_LE(adv[i], 1.f);
  }
}

TEST(MiFgsm, IncreasesLossOverClean) {
  auto net = small_net(5);
  rhw::RandomEngine rng(6);
  const Tensor x = Tensor::rand_uniform({16, 8}, rng, 0.3f, 0.7f);
  const auto labels = labels_mod3(16);
  MiFgsmConfig cfg;
  cfg.epsilon = 0.1f;
  const Tensor adv = mifgsm(net, x, labels, cfg);
  EXPECT_GT(batch_loss(net, adv, labels), batch_loss(net, x, labels));
}

TEST(MiFgsm, ZeroDecayStillAttacks) {
  auto net = small_net(7);
  rhw::RandomEngine rng(8);
  const Tensor x = Tensor::rand_uniform({16, 8}, rng, 0.3f, 0.7f);
  const auto labels = labels_mod3(16);
  MiFgsmConfig cfg;
  cfg.epsilon = 0.1f;
  cfg.decay = 0.f;  // degenerates to iterated FGSM
  const Tensor adv = mifgsm(net, x, labels, cfg);
  EXPECT_GT(batch_loss(net, adv, labels), batch_loss(net, x, labels));
}

// -- Square -------------------------------------------------------------------

TEST(Square, StaysInsideEpsilonBallAndPixelRange) {
  auto net = small_net(9);
  rhw::RandomEngine rng(10);
  const Tensor x = Tensor::rand_uniform({6, 8}, rng, 0.2f, 0.8f);
  SquareConfig cfg;
  cfg.epsilon = 0.1f;
  cfg.queries = 30;
  const Tensor adv = square_attack(net, x, labels_mod3(6), cfg);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(adv[i] - x[i]), cfg.epsilon + 1e-6f);
    EXPECT_GE(adv[i], 0.f);
    EXPECT_LE(adv[i], 1.f);
  }
}

TEST(Square, DeterministicPerSeedAndSensitiveToIt) {
  auto net = small_net(11);
  rhw::RandomEngine rng(12);
  const Tensor x = Tensor::rand_uniform({4, 1, 4, 4}, rng, 0.3f, 0.7f);
  // A 4x4-image net so rank-4 geometry (stripes, windows) is exercised.
  nn::Sequential img_net;
  img_net.emplace<nn::Flatten>();
  img_net.emplace<nn::Linear>(16, 3);
  nn::kaiming_init(img_net, rng);
  img_net.set_training(false);
  SquareConfig cfg;
  cfg.epsilon = 0.1f;
  cfg.queries = 20;
  cfg.seed = 404;
  const Tensor a = square_attack(img_net, x, {0, 1, 2, 0}, cfg);
  const Tensor b = square_attack(img_net, x, {0, 1, 2, 0}, cfg);
  for (int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
  cfg.seed = 405;
  const Tensor c = square_attack(img_net, x, {0, 1, 2, 0}, cfg);
  double diff = 0;
  for (int64_t i = 0; i < a.numel(); ++i) diff += std::fabs(a[i] - c[i]);
  EXPECT_GT(diff, 0.0);
}

// Square's margin queries are forward-only: the queried net keeps no
// backward state afterwards, and a stray backward says so.
TEST(Square, QueriesKeepNoBackwardState) {
  auto net = small_net(17);
  rhw::RandomEngine rng(18);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng, 0.3f, 0.7f);
  AttackContext ctx;
  ctx.grad_net = &net;
  ctx.eval_net = &net;
  ctx.seed = 19;
  (void)make_attack("square:queries=10")->perturb(ctx, x, labels_mod3(4));
  try {
    (void)net.backward(Tensor({4, 3}, 1.f));
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "Sequential::backward: last forward ran in "
              "nn::Module::InferenceScope and kept no backward state");
  }
}

TEST(Square, ReducesMarginWithoutGradients) {
  auto net = small_net(13);
  rhw::RandomEngine rng(14);
  const Tensor x = Tensor::rand_uniform({24, 8}, rng, 0.3f, 0.7f);
  const auto labels = labels_mod3(24);
  SquareConfig cfg;
  cfg.epsilon = 0.15f;
  cfg.queries = 80;
  const Tensor adv = square_attack(net, x, labels, cfg);
  // A random-search attack with a real budget must hurt at least as much as
  // the clean input on average (loss-based check keeps this robust).
  EXPECT_GT(batch_loss(net, adv, labels), batch_loss(net, x, labels));
}

TEST(Square, MoreQueriesNoWeaker) {
  auto net = small_net(15);
  rhw::RandomEngine rng(16);
  const Tensor x = Tensor::rand_uniform({24, 8}, rng, 0.3f, 0.7f);
  const auto labels = labels_mod3(24);
  // Mean margin z_true - best_other: the exact objective Square greedily
  // minimizes per example.
  auto mean_margin = [&](const Tensor& inputs) {
    const Tensor logits = net.forward(inputs);
    double total = 0;
    for (int64_t i = 0; i < logits.dim(0); ++i) {
      float best_other = -1e30f;
      for (int64_t j = 0; j < logits.dim(1); ++j) {
        if (j != labels[static_cast<size_t>(i)]) {
          best_other = std::max(best_other, logits.at(i, j));
        }
      }
      total += logits.at(i, labels[static_cast<size_t>(i)]) - best_other;
    }
    return total / static_cast<double>(logits.dim(0));
  };
  SquareConfig small;
  small.epsilon = 0.12f;
  small.queries = 10;
  SquareConfig big = small;
  big.queries = 120;
  const double margin_small =
      mean_margin(square_attack(net, x, labels, small));
  const double margin_big = mean_margin(square_attack(net, x, labels, big));
  // The two budgets explore different proposal sequences (the window-size
  // schedule rescales with the budget), so allow a little slack rather than
  // asserting strict monotonicity of a random search.
  EXPECT_LE(margin_big, margin_small + 0.1);
  EXPECT_LT(margin_big, mean_margin(x));
}

// -- noisy-gradient EOT-PGD ---------------------------------------------------

TEST(EotPgd, NoisyGradAveragesGatedNoiseAway) {
  // A net with a GATED stochastic post hook — invisible to plain PGD
  // (hooks disabled during gradients) but sampled by noisy_grad EOT. The
  // attack must still at least match plain PGD on the clean loss surface.
  auto net = small_net(17);
  auto rng_ptr = std::make_shared<rhw::RandomEngine>(18);
  net[0].set_post_hook(
      [rng_ptr](Tensor& t) {
        for (float& v : t.span()) v += 0.05f * rng_ptr->gaussian();
      },
      /*gated=*/true,
      [rng_ptr](uint64_t seed) { rng_ptr->reseed(seed); });

  rhw::RandomEngine rng(19);
  const Tensor x = Tensor::rand_uniform({32, 8}, rng, 0.3f, 0.7f);
  const auto labels = labels_mod3(32);
  PgdConfig plain;
  plain.epsilon = 0.1f;
  plain.random_start = false;
  PgdConfig eot = plain;
  eot.grad_samples = 8;
  eot.noisy_grad = true;
  const Tensor adv_plain = pgd(net, x, labels, plain);
  const Tensor adv_eot = pgd(net, x, labels, eot);
  // Judge both on the deterministic (hook-free) surface.
  nn::Module::HooksDisabledScope no_noise;
  const float loss_plain = batch_loss(net, adv_plain, labels);
  const float loss_eot = batch_loss(net, adv_eot, labels);
  EXPECT_GE(loss_eot, loss_plain * 0.85f);
  EXPECT_GT(loss_eot, batch_loss(net, x, labels));
}

TEST(EotPgd, DeterministicPerSeed) {
  auto net = small_net(21);
  auto rng_ptr = std::make_shared<rhw::RandomEngine>(22);
  net[0].set_post_hook(
      [rng_ptr](Tensor& t) {
        for (float& v : t.span()) v += 0.05f * rng_ptr->gaussian();
      },
      /*gated=*/true,
      [rng_ptr](uint64_t seed) { rng_ptr->reseed(seed); });
  rhw::RandomEngine rng(23);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng, 0.3f, 0.7f);
  PgdConfig cfg;
  cfg.epsilon = 0.1f;
  cfg.steps = 2;
  cfg.grad_samples = 3;
  cfg.noisy_grad = true;
  cfg.seed = 99;
  const Tensor a = pgd(net, x, {0, 1, 2, 0}, cfg);
  const Tensor b = pgd(net, x, {0, 1, 2, 0}, cfg);
  for (int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

// Through the registry + evaluation harness: an end-to-end smoke that the
// spec-selected attacks reduce accuracy on a real (if tiny) model.
TEST(NewAttacks, RegistryAttacksPerturbThroughInterface) {
  auto net = small_net(25);
  rhw::RandomEngine rng(26);
  const Tensor x = Tensor::rand_uniform({8, 8}, rng, 0.3f, 0.7f);
  const auto labels = labels_mod3(8);
  for (const char* spec :
       {"fgsm", "pgd:steps=3", "eot_pgd:steps=2,samples=2",
        "mifgsm:steps=3", "square:queries=10"}) {
    auto attack = make_attack(spec);
    attack->set_epsilon(0.1f);
    AttackContext ctx;
    ctx.grad_net = &net;
    ctx.eval_net = &net;
    ctx.seed = 1234;
    const Tensor adv = attack->perturb(ctx, x, labels);
    ASSERT_TRUE(adv.same_shape(x)) << spec;
    double moved = 0;
    for (int64_t i = 0; i < x.numel(); ++i) {
      EXPECT_LE(std::fabs(adv[i] - x[i]), 0.1f + 1e-6f) << spec;
      moved += std::fabs(adv[i] - x[i]);
    }
    EXPECT_GT(moved, 0.0) << spec;
  }
}

}  // namespace
}  // namespace rhw::attacks
