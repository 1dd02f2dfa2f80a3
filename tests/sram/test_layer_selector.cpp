// Fig. 4 methodology tests on a small trained model.
#include "sram/layer_selector.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "data/synth_cifar.hpp"
#include "hw/registry.hpp"
#include "hw/sram_backend.hpp"
#include "models/zoo.hpp"

namespace rhw::sram {
namespace {

class SelectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 60;
    dcfg.test_per_class = 30;
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
    tcfg.epochs = 3;
    tcfg.batch_size = 48;
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

data::SynthCifar* SelectorTest::data_ = nullptr;
models::Model* SelectorTest::model_ = nullptr;

SelectorConfig fast_config() {
  SelectorConfig cfg;
  cfg.eval_count = 80;
  cfg.epsilon = 0.12f;
  cfg.batch_size = 80;
  return cfg;
}

TEST_F(SelectorTest, ProducesOneBestChoicePerSite) {
  const auto result = select_layers(*model_, data_->test, fast_config());
  EXPECT_EQ(result.per_site_best.size(), model_->sites.size());
  for (const auto& choice : result.per_site_best) {
    EXPECT_GE(choice.adv_acc, 0.0);
    EXPECT_LE(choice.adv_acc, 100.0);
    EXPECT_GE(choice.word.num_6t(), 1);
    EXPECT_LE(choice.word.num_6t(), 8);
  }
}

TEST_F(SelectorTest, ShortlistRespectsThreshold) {
  const auto cfg = fast_config();
  const auto result = select_layers(*model_, data_->test, cfg);
  for (const auto& choice : result.shortlisted) {
    EXPECT_GT(choice.adv_acc,
              result.baseline_adv_acc + cfg.improvement_threshold);
  }
}

TEST_F(SelectorTest, FinalCombinationNoWorseThanBaseline) {
  const auto result = select_layers(*model_, data_->test, fast_config());
  EXPECT_GE(result.final_adv_acc, result.baseline_adv_acc);
}

TEST_F(SelectorTest, SelectionComesFromShortlist) {
  const auto result = select_layers(*model_, data_->test, fast_config());
  for (const auto& sel : result.selected) {
    bool found = false;
    for (const auto& short_choice : result.shortlisted) {
      if (short_choice.site_index == sel.site_index) found = true;
    }
    EXPECT_TRUE(found) << "selected site " << sel.site_label
                       << " not in shortlist";
  }
}

TEST_F(SelectorTest, HooksClearedAfterSelection) {
  (void)select_layers(*model_, data_->test, fast_config());
  for (const auto& site : model_->sites) {
    EXPECT_FALSE(site.module->has_post_hook());
  }
}

TEST_F(SelectorTest, ApplySelectionInstallsHooks) {
  auto result = select_layers(*model_, data_->test, fast_config());
  if (result.selected.empty()) {
    // Fall back: force-install the best per-site choice to test apply.
    result.selected.push_back(result.per_site_best.front());
  }
  apply_selection(*model_, result.selected, 0.68);
  size_t hooked = 0;
  for (const auto& site : model_->sites) {
    if (site.module->has_post_hook()) ++hooked;
  }
  EXPECT_EQ(hooked, result.selected.size());
  clear_all_site_hooks(*model_);
}

TEST_F(SelectorTest, BaselineSanity) {
  const auto result = select_layers(*model_, data_->test, fast_config());
  EXPECT_GT(result.baseline_clean_acc, 50.0);
  EXPECT_LT(result.baseline_adv_acc, result.baseline_clean_acc);
}

// Every field of a selection, printed exactly, so two runs compare as one
// string and a mismatch shows where they part.
std::string describe(const SelectionResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "eps %.9g base %.17g/%.17g final %.17g/%.17g\n",
                static_cast<double>(r.epsilon), r.baseline_clean_acc,
                r.baseline_adv_acc, r.final_clean_acc, r.final_adv_acc);
  std::string out = buf;
  for (const auto* list : {&r.per_site_best, &r.shortlisted, &r.selected}) {
    for (const SiteChoice& c : *list) {
      std::snprintf(buf, sizeof buf, "%zu %s %d %.17g; ", c.site_index,
                    c.site_label.c_str(), c.word.num_8t, c.adv_acc);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

// A calibrated `sram` arm runs the methodology at the class-count probe
// epsilon (0.1 up to 50 classes, 0.04 above) and installs exactly its
// choice: the same result select_layers gives with that epsilon explicit,
// and a different one than the other probe gives.
void expect_calibrated_arm_matches_selector(int64_t classes,
                                            int64_t train_per_class,
                                            int64_t test_per_class,
                                            float probe, float other) {
  data::SynthCifarConfig dcfg;
  dcfg.num_classes = classes;
  dcfg.train_per_class = train_per_class;
  dcfg.test_per_class = test_per_class;
  dcfg.image_size = 16;
  const data::SynthCifar data = data::make_synth_cifar(dcfg);
  models::Model model = models::build_model("vgg8", classes, 0.125f, 16);
  models::TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.batch_size = 50;
  models::train_model(model, data, tcfg);

  models::Model armed = models::clone_model(model, 0.125f, 16);
  auto backend = hw::make_backend("sram:vdd=0.68,eval_count=64");
  backend->prepare(armed, &data.test);
  const auto* sram = dynamic_cast<const hw::SramBackend*>(backend.get());
  ASSERT_NE(sram, nullptr);

  SelectorConfig cfg;
  cfg.eval_count = 64;
  cfg.epsilon = probe;
  models::Model probed = models::clone_model(model, 0.125f, 16);
  const SelectionResult want = select_layers(probed, data.test, cfg);
  EXPECT_EQ(sram->selection_result().epsilon, probe);
  EXPECT_EQ(describe(sram->selection_result()), describe(want));

  ASSERT_EQ(sram->selection().size(), want.selected.size());
  for (size_t k = 0; k < want.selected.size(); ++k) {
    EXPECT_EQ(sram->selection()[k].site_index, want.selected[k].site_index);
    EXPECT_EQ(sram->selection()[k].word.num_8t, want.selected[k].word.num_8t);
  }
  for (size_t s = 0; s < armed.sites.size(); ++s) {
    bool chosen = false;
    for (const auto& c : want.selected) chosen = chosen || c.site_index == s;
    EXPECT_EQ(armed.sites[s].module->has_post_hook(), chosen) << "site " << s;
  }

  cfg.epsilon = other;
  models::Model other_probed = models::clone_model(model, 0.125f, 16);
  EXPECT_NE(describe(select_layers(other_probed, data.test, cfg)),
            describe(want));
}

TEST(CalibratedSramArm, TenClassPanelProbesAtEpsilonPointOne) {
  expect_calibrated_arm_matches_selector(10, 40, 10, 0.1f, 0.04f);
}

TEST(CalibratedSramArm, HundredClassPanelProbesAtEpsilonPointZeroFour) {
  expect_calibrated_arm_matches_selector(100, 10, 2, 0.04f, 0.1f);
}

}  // namespace
}  // namespace rhw::sram
