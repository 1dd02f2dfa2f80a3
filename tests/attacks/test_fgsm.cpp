#include "attacks/fgsm.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
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

TEST(Fgsm, ZeroEpsilonIsIdentity) {
  auto net = small_net(1);
  rhw::RandomEngine rng(2);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng);
  FgsmConfig cfg;
  cfg.epsilon = 0.f;
  const Tensor adv = fgsm(net, x, {0, 1, 2, 0}, cfg);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(adv[i], x[i]);
}

TEST(Fgsm, PerturbationBoundedByEpsilon) {
  auto net = small_net(3);
  rhw::RandomEngine rng(4);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng, 0.2f, 0.8f);
  FgsmConfig cfg;
  cfg.epsilon = 0.07f;
  const Tensor adv = fgsm(net, x, {0, 1, 2, 0}, cfg);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(adv[i] - x[i]), cfg.epsilon + 1e-6f);
  }
}

TEST(Fgsm, StaysInValidPixelRange) {
  auto net = small_net(5);
  rhw::RandomEngine rng(6);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng);  // includes near 0/1
  FgsmConfig cfg;
  cfg.epsilon = 0.3f;
  const Tensor adv = fgsm(net, x, {1, 1, 1, 1}, cfg);
  EXPECT_GE(adv.min(), 0.f);
  EXPECT_LE(adv.max(), 1.f);
}

TEST(Fgsm, IncreasesLoss) {
  auto net = small_net(7);
  rhw::RandomEngine rng(8);
  const Tensor x = Tensor::rand_uniform({16, 8}, rng, 0.3f, 0.7f);
  std::vector<int64_t> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 3);
  FgsmConfig cfg;
  cfg.epsilon = 0.1f;
  const Tensor adv = fgsm(net, x, labels, cfg);

  nn::SoftmaxCrossEntropy loss;
  const float clean_loss = loss.forward(net.forward(x), labels);
  nn::SoftmaxCrossEntropy loss2;
  const float adv_loss = loss2.forward(net.forward(adv), labels);
  EXPECT_GT(adv_loss, clean_loss);
}

TEST(Fgsm, InputGradientMatchesFiniteDifference) {
  auto net = small_net(9);
  rhw::RandomEngine rng(10);
  Tensor x = Tensor::rand_uniform({2, 8}, rng, 0.3f, 0.7f);
  const std::vector<int64_t> labels{0, 2};
  const Tensor grad = input_gradient(net, x, labels);

  const float h = 1e-3f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    nn::SoftmaxCrossEntropy l1, l2;
    x[i] = orig + h;
    const float up = l1.forward(net.forward(x), labels);
    x[i] = orig - h;
    const float down = l2.forward(net.forward(x), labels);
    x[i] = orig;
    EXPECT_NEAR(grad[i], (up - down) / (2 * h), 5e-3f) << "index " << i;
  }
}

TEST(Fgsm, GradientPassDisablesGatedHooks) {
  auto net = small_net(11);
  bool hook_ran_during_grad = false;
  net[1].set_post_hook([&](Tensor&) { hook_ran_during_grad = true; });
  rhw::RandomEngine rng(12);
  const Tensor x = Tensor::rand_uniform({2, 8}, rng);
  (void)input_gradient(net, x, {0, 1});
  EXPECT_FALSE(hook_ran_during_grad);
  // Outside the gradient pass the hook fires again.
  (void)net.forward(x);
  EXPECT_TRUE(hook_ran_during_grad);
}

TEST(Fgsm, RestoresTrainingFlag) {
  auto net = small_net(13);
  net.set_training(true);
  rhw::RandomEngine rng(14);
  const Tensor x = Tensor::rand_uniform({2, 8}, rng);
  (void)input_gradient(net, x, {0, 1});
  EXPECT_TRUE(net.training());
}

// The input-gradient scope is per thread: an attack gradient on a pool worker
// must not strip the parameter gradients of a training step the caller runs
// at the same time on another replica. Run under TSan in CI.
TEST(Fgsm, InputGradientOnAPoolWorkerLeavesCallerTrainingIntact) {
  auto make_replica = [] {
    models::Model model = models::build_model("vgg8", 4, 0.125f, 16);
    rhw::RandomEngine rng(15);
    nn::kaiming_init(*model.net, rng);
    return std::move(model.net);
  };
  auto train_step = [](nn::Module& net, const Tensor& x,
                       const std::vector<int64_t>& labels) {
    net.set_training(true);
    nn::SoftmaxCrossEntropy loss;
    loss.forward(net.forward(x), labels);
    (void)net.backward(loss.backward());
    std::vector<Tensor> grads;
    for (nn::Param* p : net.parameters()) grads.push_back(p->grad);
    return grads;
  };
  rhw::RandomEngine rng(16);
  const Tensor x = Tensor::rand_uniform({4, 3, 16, 16}, rng);
  const std::vector<int64_t> labels{0, 1, 2, 3};

  const auto serial = train_step(*make_replica(), x, labels);

  const auto attacked = make_replica();
  const auto trained = make_replica();
  std::vector<Tensor> concurrent;
  Tensor worker_grad;
  ThreadPool pool(1);
  // Two chunks on a one-worker pool: chunk 1 always runs on the worker.
  pool.parallel_for(2, [&](int64_t begin, int64_t) {
    if (begin == 1) {
      for (int i = 0; i < 3; ++i) {
        worker_grad = input_gradient(*attacked, x, labels);
      }
    } else {
      concurrent = train_step(*trained, x, labels);
    }
  });

  EXPECT_EQ(worker_grad.shape(), x.shape());
  ASSERT_EQ(serial.size(), concurrent.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].shape(), concurrent[i].shape()) << i;
    EXPECT_EQ(std::memcmp(serial[i].data(), concurrent[i].data(),
                          static_cast<size_t>(serial[i].numel()) *
                              sizeof(float)),
              0)
        << "param " << i;
  }
  // And the attacked replica's own parameter gradients stayed zero.
  for (nn::Param* p : attacked->parameters()) {
    for (const float v : p->grad.span()) ASSERT_EQ(v, 0.f) << p->name;
  }
}

}  // namespace
}  // namespace rhw::attacks
