// defenses::prepare_arm is the one rule by which sweep replicas and serving
// lanes reproduce their prototype. The property: for every hardware registry
// key, bare and under every defense registry key, a prototype prepared with
// calibration data and a replica built from it without that data serve
// bit-identical logits under the same noise seed and report the same energy.
#include "defenses/defense.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "data/synth_cifar.hpp"
#include "defenses/registry.hpp"
#include "hw/registry.hpp"
#include "hw/sram_backend.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"

namespace rhw::defenses {
namespace {

// The cheapest specs each builtin key accepts, one per mode of the key. A
// key missing here fails the property test until its spec is added.
const std::map<std::string, std::vector<std::string>> kHwSpecs{
    {"ideal", {"ideal"}},
    {"sram",
     {"sram:vdd=0.6,eps=0.05,eval_count=16",
      "sram:vdd=0.6,eps=0.05,eval_count=16,memory=weights"}},
    {"xbar", {"xbar:size=16"}},
};
const std::map<std::string, std::string> kDefenseSpecs{
    {"none", "none"},  // the bare arm
    {"adv_train", "adv_train:attack=fgsm,eps=0.05,epochs=1"},
    {"smooth", "smooth:sigma=0.2,samples=2"},
    {"jpeg_quant", "jpeg_quant:bits=4"},
    {"gauss_aug", "gauss_aug:sigma=0.1"},
    {"quanos", "quanos"},
};

constexpr float kWidth = 0.125f;
constexpr int64_t kInSize = 16;
constexpr uint64_t kNoiseSeed = 0xA11CE;

class PreparedArmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 4;
    dcfg.test_per_class = 4;
    dcfg.image_size = kInSize;
    data_ = new data::SynthCifar(data::make_synth_cifar(dcfg));
    model_ = new models::Model(models::build_model("vgg8", 4, kWidth, kInSize));
    // build_model leaves weights at zero, which would make every logit 0.
    RandomEngine rng(3);
    nn::kaiming_init(*model_->net, rng);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  struct ArmPair {
    PreparedArm prototype;
    PreparedArm replica;
  };

  // A prototype prepared on calibration data, and a replica built from it.
  static ArmPair build_pair(const models::Model& baseline,
                            const std::string& hw_spec,
                            const std::string& defense_spec,
                            const data::Dataset& calibration) {
    const DefensePtr defense = make_defense(defense_spec);
    DefenseContext ctx;
    ctx.train_data = data_;
    ctx.calibration = &calibration;
    ArmPair pair;
    pair.prototype =
        prepare_arm(baseline, kWidth, kInSize, hw_spec, *defense, ctx);
    pair.replica = prepare_arm(baseline, kWidth, kInSize, hw_spec, *defense,
                               ctx, &pair.prototype);
    return pair;
  }

  // The replica serves exactly what the prototype serves.
  static void expect_same_serving(const ArmPair& pair) {
    hw::HardwareBackend& want_hw = *pair.prototype.serving();
    hw::HardwareBackend& got_hw = *pair.replica.serving();
    EXPECT_EQ(got_hw.energy_report().summary(),
              want_hw.energy_report().summary());
    const Tensor batch = data_->test.slice(0, 8).images;
    nn::reseed_noise_streams(want_hw.module(), kNoiseSeed);
    nn::reseed_noise_streams(got_hw.module(), kNoiseSeed);
    const Tensor want = want_hw.forward(batch);
    const Tensor got = got_hw.forward(batch);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * static_cast<size_t>(want.numel())),
              0);
  }

  static data::SynthCifar* data_;
  static models::Model* model_;
};

data::SynthCifar* PreparedArmTest::data_ = nullptr;
models::Model* PreparedArmTest::model_ = nullptr;

TEST_F(PreparedArmTest, ReplicaReproducesPrototypeForEveryArm) {
  const auto defense_keys = DefenseRegistry::instance().keys();
  for (const std::string& hw_key : hw::BackendRegistry::instance().keys()) {
    ASSERT_TRUE(kHwSpecs.count(hw_key)) << "no cheap spec for " << hw_key;
    for (const std::string& hw_spec : kHwSpecs.at(hw_key)) {
      for (const std::string& defense_key : defense_keys) {
        ASSERT_TRUE(kDefenseSpecs.count(defense_key))
            << "no cheap spec for " << defense_key;
        SCOPED_TRACE(hw_spec + " + " + defense_key);
        expect_same_serving(build_pair(*model_, hw_spec,
                                       kDefenseSpecs.at(defense_key),
                                       data_->test));
      }
    }
  }
}

// A calibration that selects no SRAM site decides an empty selection: the
// replica must stay noise-free too, not fall back to the default sites. The
// classifier is pinned to class 0 by a large bias and every calibration
// label is 0, so clean and adversarial accuracy are 100% with or without
// noise and no site can beat the baseline.
TEST_F(PreparedArmTest, EmptyCalibratedSramSelectionReplicatesEmpty) {
  models::Model pinned = models::clone_model(*model_, kWidth, kInSize);
  auto* classifier =
      dynamic_cast<nn::Linear*>(nn::collect_weight_layers(*pinned.net).back());
  ASSERT_NE(classifier, nullptr);
  classifier->bias().value[0] = 1e3f;
  data::Dataset calibration = data_->test;
  for (auto& label : calibration.labels) label = 0;

  const ArmPair pair =
      build_pair(pinned, kHwSpecs.at("sram").front(), "none", calibration);
  for (const PreparedArm* arm : {&pair.prototype, &pair.replica}) {
    const auto* sram = dynamic_cast<const hw::SramBackend*>(arm->inner.get());
    ASSERT_NE(sram, nullptr);
    EXPECT_TRUE(sram->selection().empty());
    for (const auto& site : arm->model.sites) {
      EXPECT_FALSE(site.module->has_post_hook()) << site.label;
    }
  }
  expect_same_serving(pair);
}

// memory=weights puts the hybrid words in the weight memories: prepare()
// corrupts the k-th weight layer once per chosen site and installs no
// activation hook, so its replicas serve deterministic logits. Uncalibrated,
// it takes the two fallback sites, i.e. corrupts the first two layers.
TEST_F(PreparedArmTest, WeightMemorySramCorruptsWeightsAndInstallsNoHook) {
  const ArmPair pair =
      build_pair(*model_, "sram:vdd=0.6,num_8t=2,memory=weights", "none",
                 data::Dataset{});
  const auto baseline_layers = nn::collect_weight_layers(*model_->net);
  for (const PreparedArm* arm : {&pair.prototype, &pair.replica}) {
    const auto* sram = dynamic_cast<const hw::SramBackend*>(arm->inner.get());
    ASSERT_NE(sram, nullptr);
    ASSERT_EQ(sram->selection().size(), 2u);
    for (const auto& site : arm->model.sites) {
      EXPECT_FALSE(site.module->has_post_hook()) << site.label;
    }
    const auto layers = nn::collect_weight_layers(*arm->model.net);
    ASSERT_EQ(layers.size(), baseline_layers.size());
    for (size_t k = 0; k < layers.size(); ++k) {
      const Tensor& got = layers[k]->parameters().front()->value;
      const Tensor& was = baseline_layers[k]->parameters().front()->value;
      const bool same =
          std::memcmp(got.data(), was.data(),
                      sizeof(float) * static_cast<size_t>(got.numel())) == 0;
      EXPECT_EQ(same, k >= 2) << "weight layer " << k;
    }
  }
  expect_same_serving(pair);
}

}  // namespace
}  // namespace rhw::defenses
