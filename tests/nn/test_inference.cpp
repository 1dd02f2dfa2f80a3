// Forward-only inference path: inside Module::InferenceScope every layer
// computes the same output bit for bit but keeps no backward state, and a
// backward() after such a forward throws a named error instead of reading
// stale or missing caches. Input-gradient path: inside
// Module::InputGradientScope forward and backward give the same output and
// dx bit for bit but leave every parameter gradient untouched.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "attacks/fgsm.hpp"
#include "core/thread_pool.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "xbar/mapper.hpp"

namespace rhw::nn {
namespace {

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

Tensor random_input(Shape shape, uint64_t seed) {
  RandomEngine rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

Tensor scoped_forward(Module& m, const Tensor& x) {
  const Module::InferenceScope inference;
  return m.forward(x);
}

// A module under test, built initialised and in eval mode, with its input.
struct Case {
  std::string name;
  std::function<ModulePtr()> make;
  Shape input;
};

// Eval-mode BatchNorm with non-trivial affine parameters and statistics.
ModulePtr make_batchnorm() {
  auto bn = std::make_unique<BatchNorm2d>(4);
  RandomEngine rng(3);
  for (int64_t c = 0; c < 4; ++c) {
    bn->gamma().value[c] = rng.uniform(0.5f, 1.5f);
    bn->beta().value[c] = rng.uniform(-0.5f, 0.5f);
    bn->running_mean()[c] = rng.uniform(-0.5f, 0.5f);
    bn->running_var()[c] = rng.uniform(0.5f, 1.5f);
  }
  bn->set_training(false);
  return bn;
}

// A residual block whose BatchNorm statistics moved off their defaults in
// one training-mode forward.
ModulePtr make_block(int64_t in_c, int64_t out_c, int64_t stride) {
  auto block = std::make_unique<ResidualBlock>(in_c, out_c, stride);
  RandomEngine rng(5);
  kaiming_init(*block, rng);
  block->set_training(true);
  (void)block->forward(random_input({4, in_c, 8, 8}, 6));
  block->set_training(false);
  return block;
}

template <typename M, typename... Args>
ModulePtr make_initialised(Args... args) {
  auto m = std::make_unique<M>(args...);
  RandomEngine rng(2);
  kaiming_init(*m, rng);
  m->set_training(false);
  return m;
}

ModulePtr make_model(const std::string& arch) {
  models::Model model = models::build_model(arch, 10, 0.125f, 16);
  RandomEngine rng(9);
  kaiming_init(*model.net, rng);
  model.net->set_training(true);
  (void)model.net->forward(random_input({4, 3, 16, 16}, 10));
  model.net->set_training(false);
  return std::move(model.net);
}

// Layers that cache backward state, then the ones that keep only shapes, then
// whole models.
std::vector<Case> caching_cases() {
  return {
      {"Conv2d", [] { return make_initialised<Conv2d>(3, 8, 3, 1, 1); },
       {2, 3, 8, 8}},
      {"Linear", [] { return make_initialised<Linear>(12, 5); }, {3, 12}},
      {"BatchNorm2d", make_batchnorm, {2, 4, 5, 5}},
      {"ReLU", [] { return std::make_unique<ReLU>(); }, {2, 3, 4, 4}},
      {"MaxPool2d", [] { return std::make_unique<MaxPool2d>(2); },
       {2, 3, 6, 6}},
      {"ResidualBlock(identity)", [] { return make_block(4, 4, 1); },
       {2, 4, 8, 8}},
      {"ResidualBlock(projection)", [] { return make_block(3, 6, 2); },
       {2, 3, 8, 8}},
      {"vgg8", [] { return make_model("vgg8"); }, {3, 3, 16, 16}},
      {"resnet18", [] { return make_model("resnet18"); }, {3, 3, 16, 16}},
  };
}

std::vector<Case> all_cases() {
  std::vector<Case> cases = caching_cases();
  cases.push_back({"AvgPool2d", [] { return std::make_unique<AvgPool2d>(2); },
                   {2, 3, 6, 6}});
  cases.push_back(
      {"Flatten", [] { return std::make_unique<Flatten>(); }, {2, 3, 2, 2}});
  return cases;
}

TEST(Inference, ScopedForwardIsBitIdentical) {
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    const ModulePtr m = c.make();
    const Tensor x = random_input(c.input, 11);
    const Tensor cached = m->forward(x);
    const Tensor scoped = scoped_forward(*m, x);
    EXPECT_TRUE(same_bits(cached, scoped));
    // And again after the scope dropped the caches: nothing the scoped
    // forward skipped feeds the output.
    EXPECT_TRUE(same_bits(cached, m->forward(x)));
  }
}

TEST(Inference, BackwardAfterScopedForwardThrowsNamedError) {
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    const ModulePtr m = c.make();
    const Tensor x = random_input(c.input, 12);
    // A caching forward first, so stale state would be there to misuse.
    const Tensor y = m->forward(x);
    (void)scoped_forward(*m, x);
    const Tensor grad_out(y.shape(), 1.f);
    try {
      (void)m->backward(grad_out);
      ADD_FAILURE() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()),
                m->type_name() +
                    "::backward: last forward ran in "
                    "nn::Module::InferenceScope and kept no backward state");
    }
  }
}

TEST(Inference, CachingForwardAfterTheScopeRestoresBackward) {
  for (const Case& c : caching_cases()) {
    SCOPED_TRACE(c.name);
    const Tensor x = random_input(c.input, 13);

    const ModulePtr reference = c.make();
    const Tensor y = reference->forward(x);
    const Tensor grad_out = random_input(y.shape(), 14);
    const Tensor expected = reference->backward(grad_out);

    const ModulePtr m = c.make();
    (void)scoped_forward(*m, x);
    (void)m->forward(x);
    EXPECT_TRUE(same_bits(expected, m->backward(grad_out)));
    // Parameter gradients too: nothing of the scoped forward leaked in.
    const auto ref_params = reference->parameters();
    const auto params = m->parameters();
    ASSERT_EQ(ref_params.size(), params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(same_bits(ref_params[i]->grad, params[i]->grad)) << i;
    }
  }
}

TEST(Inference, ScopesNestAndLeaveHookGatingAlone) {
  EXPECT_FALSE(Module::inference_mode());
  {
    const Module::InferenceScope outer;
    EXPECT_TRUE(Module::inference_mode());
    EXPECT_TRUE(Module::hooks_enabled());
    {
      const Module::InferenceScope inner;
      EXPECT_TRUE(Module::inference_mode());
      {
        const Module::HooksDisabledScope no_hooks;
        EXPECT_FALSE(Module::hooks_enabled());
        EXPECT_TRUE(Module::inference_mode());
      }
      EXPECT_TRUE(Module::hooks_enabled());
    }
    EXPECT_TRUE(Module::inference_mode());  // the inner scope restored it
  }
  EXPECT_FALSE(Module::inference_mode());
  {
    const Module::HooksDisabledScope no_hooks;
    EXPECT_FALSE(Module::inference_mode());
  }
}

struct Gradients {
  Tensor dx;
  std::vector<Tensor> params;
};

Gradients forward_backward(Module& net, const Tensor& x) {
  const Tensor y = net.forward(x);
  Gradients g;
  g.dx = net.backward(Tensor(y.shape(), 1.f));
  for (Param* p : net.parameters()) g.params.push_back(p->grad);
  return g;
}

// Inference mode is per thread: a scoped forward on a pool worker must not
// switch off the caches of the forward the caller runs at the same time on
// another replica. Run under TSan in CI.
TEST(Inference, ScopeOnAPoolWorkerLeavesTheCallerCaching) {
  const Tensor x = random_input({4, 3, 16, 16}, 15);
  const ModulePtr reference = make_model("vgg8");
  const Gradients serial = forward_backward(*reference, x);
  const Tensor logits = reference->forward(x);

  const ModulePtr worker_replica = make_model("vgg8");
  const ModulePtr caller_replica = make_model("vgg8");
  std::vector<Tensor> worker_logits;
  Gradients concurrent;
  bool caller_saw_scope = true;
  ThreadPool pool(1);
  // Two chunks on a one-worker pool: chunk 1 always runs on the worker.
  pool.parallel_for(2, [&](int64_t begin, int64_t) {
    if (begin == 1) {
      const Module::InferenceScope inference;
      for (int i = 0; i < 3; ++i) {
        worker_logits.push_back(worker_replica->forward(x));
      }
    } else {
      caller_saw_scope = Module::inference_mode();
      concurrent = forward_backward(*caller_replica, x);
    }
  });

  EXPECT_FALSE(caller_saw_scope);
  EXPECT_TRUE(same_bits(serial.dx, concurrent.dx));
  ASSERT_EQ(serial.params.size(), concurrent.params.size());
  for (size_t i = 0; i < serial.params.size(); ++i) {
    EXPECT_TRUE(same_bits(serial.params[i], concurrent.params[i])) << i;
  }
  ASSERT_EQ(worker_logits.size(), 3u);
  for (const Tensor& l : worker_logits) EXPECT_TRUE(same_bits(logits, l));
  EXPECT_THROW((void)worker_replica->backward(Tensor(logits.shape(), 1.f)),
               std::logic_error);
}

// -- InputGradientScope ---------------------------------------------------------

// Input-gradient cases: the layers whose backward computes parameter
// gradients or reads a cache the scope drops, both residual shortcuts and
// whole models.
std::vector<Case> input_gradient_cases() {
  std::vector<Case> cases;
  for (Case& c : caching_cases()) {
    if (c.name != "ReLU" && c.name != "MaxPool2d") cases.push_back(c);
  }
  // Train-mode BatchNorm keeps its full dx path (dx needs the reductions).
  cases.push_back({"BatchNorm2d(train)",
                   [] {
                     ModulePtr bn = make_batchnorm();
                     bn->set_training(true);
                     return bn;
                   },
                   {2, 4, 5, 5}});
  return cases;
}

// Forward then backward of `grad_out`, both inside an InputGradientScope.
Tensor scoped_input_gradient(Module& m, const Tensor& x,
                             const Tensor& grad_out) {
  const Module::InputGradientScope input_gradient_only;
  (void)m.forward(x);
  return m.backward(grad_out);
}

std::vector<Tensor> param_grads(Module& m) {
  std::vector<Tensor> out;
  for (Param* p : m.parameters()) out.push_back(p->grad);
  return out;
}

// Every parameter gradient set to a non-zero pattern, so "untouched" is not
// "still zero by luck".
void fill_param_grads(Module& m) {
  RandomEngine rng(21);
  for (Param* p : m.parameters()) {
    for (float& v : p->grad.span()) v = rng.uniform(-1.f, 1.f);
  }
}

void expect_same_param_grads(const std::vector<Tensor>& a,
                             const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i], b[i])) << "param " << i;
  }
}

TEST(InputGradient, ScopedDxIsBitIdenticalAndParamGradsUntouched) {
  for (const Case& c : input_gradient_cases()) {
    SCOPED_TRACE(c.name);
    const Tensor x = random_input(c.input, 16);

    const ModulePtr reference = c.make();
    const Tensor y = reference->forward(x);
    const Tensor grad_out = random_input(y.shape(), 17);
    const Tensor expected = reference->backward(grad_out);

    const ModulePtr m = c.make();
    fill_param_grads(*m);
    const std::vector<Tensor> before = param_grads(*m);
    EXPECT_TRUE(same_bits(expected, scoped_input_gradient(*m, x, grad_out)));
    expect_same_param_grads(before, param_grads(*m));
    // A caching forward after the scope restores the full backward.
    fill_param_grads(*reference);
    fill_param_grads(*m);
    (void)reference->forward(x);
    (void)m->forward(x);
    EXPECT_TRUE(same_bits(reference->backward(grad_out),
                          m->backward(grad_out)));
    expect_same_param_grads(param_grads(*reference), param_grads(*m));
  }
}

// A crossbar-mapped model: ungated post hooks (read noise, ADC) on every
// forward and ungated backward hooks (gradient read noise) on every backward.
// With the noise streams pinned, the scoped dx matches the unscoped one.
TEST(InputGradient, XbarMappedModelDxIsBitIdentical) {
  auto make = [] {
    ModulePtr net = make_model("vgg8");
    xbar::XbarMapConfig cfg;
    cfg.spec.rows = cfg.spec.cols = 16;
    (void)xbar::map_onto_crossbars(*net, cfg);
    return net;
  };
  const Tensor x = random_input({3, 3, 16, 16}, 18);
  auto dx_of = [&](Module& net, uint64_t seed, bool scoped) {
    reseed_noise_streams(net, seed);
    const Tensor grad_out(Shape{3, 10}, 1.f);
    if (scoped) return scoped_input_gradient(net, x, grad_out);
    (void)net.forward(x);
    return net.backward(grad_out);
  };

  const ModulePtr reference = make();
  const ModulePtr m = make();
  ASSERT_TRUE(collect_weight_layers(*m).front()->has_backward_hook());
  const Tensor expected = dx_of(*reference, 5, /*scoped=*/false);
  EXPECT_TRUE(same_bits(expected, dx_of(*m, 5, /*scoped=*/true)));
  // The backward hooks fired: another noise draw moves dx.
  EXPECT_FALSE(same_bits(expected, dx_of(*m, 6, /*scoped=*/true)));
}

TEST(InputGradient, AttackGradientLeavesParamGradsUntouched) {
  for (const std::string arch : {"vgg8", "resnet18"}) {
    SCOPED_TRACE(arch);
    const ModulePtr net = make_model(arch);
    fill_param_grads(*net);
    const std::vector<Tensor> before = param_grads(*net);
    const Tensor x = random_input({3, 3, 16, 16}, 19);
    const Tensor grad = attacks::input_gradient(*net, x, {0, 1, 2});
    EXPECT_EQ(grad.shape(), x.shape());
    expect_same_param_grads(before, param_grads(*net));
  }
}

TEST(InputGradient, BackwardOutsideTheScopeThrowsNamedError) {
  for (const Case& c : input_gradient_cases()) {
    SCOPED_TRACE(c.name);
    const ModulePtr m = c.make();
    const Tensor x = random_input(c.input, 20);
    // A caching forward first, so stale state would be there to misuse.
    (void)m->forward(x);
    Tensor y;
    {
      const Module::InputGradientScope input_gradient_only;
      y = m->forward(x);
    }
    const std::string expected =
        m->type_name() +
        "::backward: last forward ran in nn::Module::InputGradientScope and "
        "kept no parameter-gradient state";
    for (const bool in_inference : {false, true}) {
      try {
        if (in_inference) {
          const Module::InferenceScope inference;
          (void)m->backward(Tensor(y.shape(), 1.f));
        } else {
          (void)m->backward(Tensor(y.shape(), 1.f));
        }
        ADD_FAILURE() << "expected std::logic_error";
      } catch (const std::logic_error& e) {
        EXPECT_EQ(std::string(e.what()), expected);
      }
    }
  }
}

TEST(InputGradient, ScopesNestWithInferenceScope) {
  using Needs = Module::BackwardNeeds;
  EXPECT_EQ(Module::backward_needs(), Needs::kAll);
  {
    const Module::InputGradientScope outer;
    EXPECT_EQ(Module::backward_needs(), Needs::kInputGradient);
    EXPECT_FALSE(Module::inference_mode());
    {
      // Smoothing's bulk vote copies during an attack: no state at all.
      const Module::InferenceScope inference;
      EXPECT_EQ(Module::backward_needs(), Needs::kNone);
      EXPECT_TRUE(Module::inference_mode());
      {
        // Scopes only narrow: an input-gradient scope cannot undo it.
        const Module::InputGradientScope inner;
        EXPECT_EQ(Module::backward_needs(), Needs::kNone);
      }
      EXPECT_EQ(Module::backward_needs(), Needs::kNone);
    }
    EXPECT_EQ(Module::backward_needs(), Needs::kInputGradient);
  }
  EXPECT_EQ(Module::backward_needs(), Needs::kAll);

  // A forward in the inner InferenceScope keeps nothing, even though the
  // caller is computing an input gradient.
  const ModulePtr m = make_model("vgg8");
  const Tensor x = random_input({2, 3, 16, 16}, 22);
  const Module::InputGradientScope input_gradient_only;
  Tensor y;
  {
    const Module::InferenceScope inference;
    y = m->forward(x);
  }
  EXPECT_THROW((void)m->backward(Tensor(y.shape(), 1.f)), std::logic_error);
}

}  // namespace
}  // namespace rhw::nn
