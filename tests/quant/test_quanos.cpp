#include "quant/quanos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "data/synth_cifar.hpp"
#include "models/zoo.hpp"
#include "nn/model_io.hpp"

namespace rhw::quant {
namespace {

struct QuanosFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    data::SynthCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 40;
    dcfg.test_per_class = 15;
    dcfg.image_size = 16;
    dcfg.noise_std = 0.12f;
    dcfg.nuisance_amp = 0.15f;
    data_ = new data::SynthCifar(data::make_synth_cifar(dcfg));

    models::VggConfig mcfg;
    mcfg.depth = 8;
    mcfg.num_classes = 4;
    mcfg.in_size = 16;
    mcfg.width_mult = 0.125f;
    model_ = new models::Model(models::make_vgg(mcfg));
    models::TrainConfig tcfg;
    tcfg.epochs = 2;
    tcfg.batch_size = 40;
    models::train_model(*model_, *data_, tcfg);
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

data::SynthCifar* QuanosFixture::data_ = nullptr;
models::Model* QuanosFixture::model_ = nullptr;

models::Model clone_model(models::Model& src) {
  models::Model copy = models::build_model(src.name, src.num_classes, 0.125f,
                                           16);
  nn::load_state_dict(*copy.net, nn::state_dict(*src.net));
  copy.net->set_training(false);
  return copy;
}

TEST_F(QuanosFixture, ReportsOneEntryPerWeightLayer) {
  auto copy = clone_model(*model_);
  QuanosConfig cfg;
  cfg.sample_count = 32;
  const auto report = apply_quanos(*copy.net, data_->test, cfg);
  const auto layers = nn::collect_weight_layers(*copy.net);
  EXPECT_EQ(report.ans.size(), layers.size());
  EXPECT_EQ(report.bits.size(), layers.size());
}

// The clean and adversarial activation probes are forward-only: the model
// keeps no backward state after them, and a stray backward says so.
TEST_F(QuanosFixture, ActivationProbesKeepNoBackwardState) {
  auto copy = clone_model(*model_);
  QuanosConfig cfg;
  cfg.sample_count = 32;
  (void)apply_quanos(*copy.net, data_->test, cfg);
  try {
    (void)copy.net->backward(Tensor({cfg.batch_size, 4}, 1.f));
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              copy.net->type_name() +
                  "::backward: last forward ran in nn::Module::InferenceScope "
                  "and kept no backward state");
  }
}

TEST_F(QuanosFixture, AnsValuesArePositive) {
  auto copy = clone_model(*model_);
  QuanosConfig cfg;
  cfg.sample_count = 32;
  const auto report = apply_quanos(*copy.net, data_->test, cfg);
  for (double a : report.ans) EXPECT_GT(a, 0.0);
  EXPECT_GT(report.ans_median, 0.0);
}

TEST_F(QuanosFixture, BitAssignmentFollowsMedianRule) {
  auto copy = clone_model(*model_);
  QuanosConfig cfg;
  cfg.sample_count = 32;
  const auto report = apply_quanos(*copy.net, data_->test, cfg);
  int low = 0, high = 0;
  for (size_t l = 0; l < report.ans.size(); ++l) {
    if (report.ans[l] >= report.ans_median) {
      EXPECT_EQ(report.bits[l], cfg.low_bits);
      ++low;
    } else {
      EXPECT_EQ(report.bits[l], cfg.high_bits);
      ++high;
    }
  }
  EXPECT_GT(low, 0);
  EXPECT_GT(high, 0);
}

TEST_F(QuanosFixture, InstallsActivationHooks) {
  auto copy = clone_model(*model_);
  QuanosConfig cfg;
  cfg.sample_count = 16;
  (void)apply_quanos(*copy.net, data_->test, cfg);
  for (nn::Module* layer : nn::collect_weight_layers(*copy.net)) {
    EXPECT_TRUE(layer->has_post_hook());
  }
}

TEST_F(QuanosFixture, QuantizedModelRetainsMostAccuracy) {
  auto copy = clone_model(*model_);
  const double before = models::evaluate_accuracy(*copy.net, data_->test);
  QuanosConfig cfg;
  cfg.sample_count = 32;
  (void)apply_quanos(*copy.net, data_->test, cfg);
  const double after = models::evaluate_accuracy(*copy.net, data_->test);
  EXPECT_GT(after, before - 25.0 / 100.0 * before - 0.1);  // lenient bound
}

TEST_F(QuanosFixture, WeightsActuallyQuantized) {
  auto copy = clone_model(*model_);
  QuanosConfig cfg;
  cfg.sample_count = 16;
  const auto report = apply_quanos(*copy.net, data_->test, cfg);
  const auto layers = nn::collect_weight_layers(*copy.net);
  for (size_t l = 0; l < layers.size(); ++l) {
    for (nn::Param* p : layers[l]->parameters()) {
      if (p->name != "weight") continue;
      // A b-bit symmetric grid has at most 2^b distinct values.
      std::vector<float> vals(p->value.data(),
                              p->value.data() + p->value.numel());
      std::sort(vals.begin(), vals.end());
      vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
      EXPECT_LE(vals.size(), (1u << report.bits[l]))
          << "layer " << l << " not quantized";
    }
  }
}

}  // namespace
}  // namespace rhw::quant
