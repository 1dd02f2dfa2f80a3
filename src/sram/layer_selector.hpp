// The Fig. 4 methodology: choose which DNN layers get bit-error noise
// injected into their hybrid activation memories, and with which 8T-6T
// configuration.
//
// Stage 1 (per-site sweep): for every activation-memory site, sweep #6T from
// 1 to total_bits at fixed Vdd, launch a fixed-strength FGSM attack on the
// modified DNN, and keep the configuration with the highest adversarial
// accuracy.
// Stage 2 (shortlist): keep sites whose best configuration beats the baseline
// adversarial accuracy by more than `improvement_threshold` percent.
// Stage 3 (combination): evaluate subsets of the shortlist (each site with
// its best configuration) and select the subset with the highest adversarial
// accuracy.
//
// Throughout, attack gradients never see the bit-error noise (global hook
// gating, see nn/module.hpp).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "attacks/evaluate.hpp"
#include "models/vgg.hpp"
#include "sram/noise_hook.hpp"

namespace rhw::sram {

struct SelectorConfig {
  double vdd = 0.68;
  // FGSM strength for the sweep; 0 picks it by the test set's class count
  // (0.04 above 50 classes, else 0.1).
  float epsilon = 0.f;
  int64_t eval_count = 256;            // test-subset size for the sweep
  double improvement_threshold = 5.0;  // percent over baseline (paper: 5%)
  int max_shortlist = 6;               // cap before subset enumeration
  int64_t batch_size = 128;
  uint64_t seed = 0x5E1Ec7;
};

struct SiteChoice {
  size_t site_index = 0;
  std::string site_label;
  HybridWordConfig word;
  double adv_acc = 0.0;  // percent, under the sweep attack
};

struct SelectionResult {
  float epsilon = 0.f;              // FGSM strength the sweep used
  double baseline_clean_acc = 0.0;  // percent, no noise
  double baseline_adv_acc = 0.0;    // percent, no noise
  std::vector<SiteChoice> per_site_best;  // one per site, sweep stage
  std::vector<SiteChoice> shortlisted;    // stage 2 survivors
  std::vector<SiteChoice> selected;       // final combination
  double final_adv_acc = 0.0;   // percent, selected combination installed
  double final_clean_acc = 0.0; // percent, selected combination installed
};

// Runs the methodology on a trained network with an explicit list of
// activation-memory sites (the hardware-backend seam entry point). All hooks
// are cleared on return; call apply_selection to install the chosen
// configuration.
SelectionResult select_layers(nn::Module& net,
                              std::span<const models::ActivationSite> sites,
                              const data::Dataset& test_set,
                              const SelectorConfig& cfg,
                              const BitErrorModel& model_ber = {});

// Model convenience wrapper (uses model.sites).
SelectionResult select_layers(models::Model& model,
                              const data::Dataset& test_set,
                              const SelectorConfig& cfg,
                              const BitErrorModel& model_ber = {});

// Installs noise hooks for the chosen sites (clearing all other site hooks).
void apply_selection(std::span<const models::ActivationSite> sites,
                     const std::vector<SiteChoice>& selection, double vdd,
                     uint64_t seed = 0x5AA0,
                     const BitErrorModel& model_ber = {});
void apply_selection(models::Model& model,
                     const std::vector<SiteChoice>& selection, double vdd,
                     uint64_t seed = 0x5AA0,
                     const BitErrorModel& model_ber = {});

// Clears hooks from every listed site.
void clear_all_site_hooks(std::span<const models::ActivationSite> sites);
void clear_all_site_hooks(models::Model& model);

}  // namespace rhw::sram
