#include "xbar/mapper.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "hw/registry.hpp"
#include "hw/xbar_backend.hpp"
#include "models/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/model_io.hpp"
#include "nn/sequential.hpp"

namespace rhw::xbar {
namespace {

nn::Sequential make_net(uint64_t seed) {
  nn::Sequential net;
  net.emplace<nn::Conv2d>(3, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(8 * 4 * 4, 40);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(40, 5);
  rhw::RandomEngine rng(seed);
  nn::kaiming_init(net, rng);
  net.set_training(false);
  return net;
}

XbarMapConfig quiet_config() {
  XbarMapConfig cfg;
  cfg.spec.rows = 16;
  cfg.spec.cols = 16;
  cfg.adc_bits = 0;          // isolate weight effects in most tests
  cfg.read_noise_sigma = 0;
  cfg.read_noise_scale = 0;
  cfg.ir_fluctuation = 0;
  cfg.grad_noise_scale = 0;
  return cfg;
}

TEST(Mapper, CountsLayersAndTiles) {
  auto net = make_net(1);
  auto cfg = quiet_config();
  const auto report = map_onto_crossbars(net, cfg);
  EXPECT_EQ(report.num_layers, 3);
  // conv: [8 x 27] -> 2 x 1 tiles; fc1: [40 x 128] -> ceil(128/16)*ceil(40/16)
  // = 8*3; fc2: [5 x 40] -> 3*1.
  EXPECT_EQ(report.num_tiles, 2 + 24 + 3);
}

TEST(Mapper, MutatesWeights) {
  auto net = make_net(2);
  const auto before = nn::state_dict(net);
  auto cfg = quiet_config();
  (void)map_onto_crossbars(net, cfg);
  const auto after = nn::state_dict(net);
  double delta = 0;
  for (const auto& [key, t] : before) {
    if (key.find("weight") == std::string::npos) continue;
    const auto& t2 = after.at(key);
    for (int64_t i = 0; i < t.numel(); ++i) delta += std::fabs(t[i] - t2[i]);
  }
  EXPECT_GT(delta, 0.0);
}

TEST(Mapper, ReportErrorsPositiveAndBounded) {
  auto net = make_net(3);
  auto cfg = quiet_config();
  const auto report = map_onto_crossbars(net, cfg);
  EXPECT_GT(report.mean_rel_weight_error, 0.0);
  EXPECT_LT(report.mean_rel_weight_error, 0.5);
  EXPECT_GE(report.max_rel_weight_error, report.mean_rel_weight_error);
}

TEST(Mapper, IdealModelWithoutVariationIsNearExact) {
  auto net = make_net(4);
  auto cfg = quiet_config();
  cfg.model = CircuitModel::kIdeal;
  cfg.process_variation = false;
  const auto report = map_onto_crossbars(net, cfg);
  EXPECT_LT(report.max_rel_weight_error, 1e-5);
}

TEST(Mapper, OutputsStayCloseForMildNonIdealities) {
  auto net = make_net(5);
  auto mapped = make_net(5);
  auto cfg = quiet_config();
  cfg.spec.r_driver = 10.0;  // mild parasitics
  cfg.spec.r_sense = 10.0;
  cfg.spec.r_wire_row = 0.1;
  cfg.spec.r_wire_col = 0.1;
  cfg.process_variation = false;
  (void)map_onto_crossbars(mapped, cfg);
  rhw::RandomEngine rng(6);
  const Tensor x = Tensor::rand_uniform({2, 3, 4, 4}, rng);
  const Tensor y0 = net.forward(x);
  const Tensor y1 = mapped.forward(x);
  for (int64_t i = 0; i < y0.numel(); ++i) {
    EXPECT_NEAR(y1[i], y0[i], 0.15f * std::fabs(y0[i]) + 0.05f);
  }
}

TEST(Mapper, DeterministicForSameSeed) {
  auto a = make_net(7);
  auto b = make_net(7);
  auto cfg = quiet_config();
  cfg.seed = 1234;
  (void)map_onto_crossbars(a, cfg);
  (void)map_onto_crossbars(b, cfg);
  const auto sa = nn::state_dict(a);
  const auto sb = nn::state_dict(b);
  for (const auto& [key, t] : sa) {
    const auto& t2 = sb.at(key);
    for (int64_t i = 0; i < t.numel(); ++i) ASSERT_EQ(t[i], t2[i]);
  }
}

TEST(Mapper, PeripheralHooksInstalledWhenEnabled) {
  auto net = make_net(8);
  XbarMapConfig cfg = quiet_config();
  cfg.adc_bits = 6;
  cfg.read_noise_sigma = 0.02;
  (void)map_onto_crossbars(net, cfg);
  for (nn::Module* layer : nn::collect_weight_layers(net)) {
    EXPECT_TRUE(layer->has_post_hook());
  }
}

TEST(Mapper, PeripheralHooksSurviveAttackGradientScope) {
  auto net = make_net(9);
  XbarMapConfig cfg = quiet_config();
  cfg.adc_bits = 4;  // coarse: easy to detect
  (void)map_onto_crossbars(net, cfg);
  rhw::RandomEngine rng(10);
  const Tensor x = Tensor::rand_uniform({1, 3, 4, 4}, rng);
  const Tensor with_hooks = net.forward(x);
  nn::Module::HooksDisabledScope scope;  // ungated hooks must still run
  const Tensor in_scope = net.forward(x);
  for (int64_t i = 0; i < with_hooks.numel(); ++i) {
    ASSERT_EQ(with_hooks[i], in_scope[i]);
  }
}

TEST(Mapper, NoHooksWhenPeripheralsDisabled) {
  auto net = make_net(11);
  auto cfg = quiet_config();
  (void)map_onto_crossbars(net, cfg);
  for (nn::Module* layer : nn::collect_weight_layers(net)) {
    EXPECT_FALSE(layer->has_post_hook());
  }
}

TEST(Mapper, GradientNoiseHookInstalledAndStochastic) {
  auto net = make_net(13);
  XbarMapConfig cfg = quiet_config();
  cfg.grad_noise_scale = 0.5;
  (void)map_onto_crossbars(net, cfg);
  for (nn::Module* layer : nn::collect_weight_layers(net)) {
    EXPECT_TRUE(layer->has_backward_hook());
  }
  // Gradients through the mapped net vary read to read.
  rhw::RandomEngine rng(14);
  const Tensor x = Tensor::rand_uniform({1, 3, 4, 4}, rng);
  (void)net.forward(x);
  const Tensor g1 = net.backward(Tensor({1, 5}, 1.f));
  (void)net.forward(x);
  const Tensor g2 = net.backward(Tensor({1, 5}, 1.f));
  double diff = 0;
  for (int64_t i = 0; i < g1.numel(); ++i) diff += std::fabs(g1[i] - g2[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Mapper, NoGradientHookWhenDisabled) {
  auto net = make_net(15);
  auto cfg = quiet_config();
  (void)map_onto_crossbars(net, cfg);
  for (nn::Module* layer : nn::collect_weight_layers(net)) {
    EXPECT_FALSE(layer->has_backward_hook());
  }
}

TEST(Mapper, BiggerCrossbarsMoreWeightError) {
  // Uniform weights keep every tile's programming scale identical, isolating
  // the array-size effect (mixed layer shapes change per-tile scales, which
  // can locally mask it).
  double prev = -1.0;
  for (int64_t n : {16, 32, 64}) {
    nn::Sequential net;
    auto& lin = net.emplace<nn::Linear>(64, 64, /*bias=*/false);
    lin.weight().value.fill(1.f);
    auto cfg = quiet_config();
    cfg.spec.rows = n;
    cfg.spec.cols = n;
    cfg.process_variation = false;
    const auto report = map_onto_crossbars(net, cfg);
    EXPECT_GT(report.mean_rel_weight_error, prev) << "n=" << n;
    prev = report.mean_rel_weight_error;
  }
}

// FNV-1a over every byte of every state_dict tensor, in key order.
uint64_t state_digest(nn::Module& net) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [name, t] : nn::state_dict(net)) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    for (size_t i = 0; i < static_cast<size_t>(t.numel()) * sizeof(float);
         ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

// Prepares `spec` on a fixed-seed initialised tiny vgg8 and returns the
// digest of the mapped weights; *num_tiles receives the mapper's tile count.
uint64_t mapped_vgg8_digest(const std::string& spec, int64_t* num_tiles) {
  models::Model model = models::build_model("vgg8", 10, 0.125f, 16);
  rhw::RandomEngine rng(21);
  nn::kaiming_init(*model.net, rng);
  auto backend = hw::make_backend(spec);
  backend->prepare(model);
  const auto* xb = dynamic_cast<const hw::XbarBackend*>(backend.get());
  EXPECT_NE(xb, nullptr);
  *num_tiles = xb != nullptr ? xb->map_report().num_tiles : -1;
  return state_digest(*model.net);
}

// Pins every prepared weight bit for bit (calibrated write-back included):
// the constants were recorded once and must only change with a deliberate,
// documented re-baseline of the crossbar model.
TEST(Mapper, MappedWeightsArePinnedBitForBit) {
  int64_t tiles = 0;
  EXPECT_EQ(mapped_vgg8_digest("xbar:size=32", &tiles), 0xe241f7577ca7a917ull);
  EXPECT_EQ(tiles, 36);
  EXPECT_EQ(mapped_vgg8_digest("xbar:size=16,model=ideal,variation=0", &tiles),
            0x2f3a76189c17e376ull);
  EXPECT_EQ(tiles, 111);
}

}  // namespace
}  // namespace rhw::xbar
