// Hybrid 8T-6T SRAM backend: the paper's Sec. III-A substrate behind the
// HardwareBackend seam.
//
// prepare() decides which sites get hybrid memories, in priority order:
//   1. an explicit `selection` (site index + hybrid word per site);
//   2. the Fig. 4 layer-selection methodology, when a calibration set is
//      passed to prepare();
//   3. a fixed fallback: `default_word` on the first `default_sites` sites.
// With `memory` = kActivations (the paper's configuration) it installs
// bit-error noise hooks on the chosen activation-memory sites. Hooks are
// gated, so attack gradients never see the noise (paper rule). With
// kWeights (the Fig. 5 ablation) it instead corrupts the k-th weight layer's
// parameters once for the k-th chosen site, as if the weight memory were
// read through erroneous 6T cells.
#pragma once

#include "hw/backend.hpp"
#include "sram/energy_model.hpp"
#include "sram/layer_selector.hpp"

namespace rhw::hw {

// Which memory the hybrid words hold.
enum class SramMemory { kActivations, kWeights };

struct SramBackendConfig {
  double vdd = 0.68;
  SramMemory memory = SramMemory::kActivations;
  uint64_t seed = 0x5AA0;
  sram::BitErrorModel ber;
  // Mode 1: explicit site choices (site_index into the model's site list).
  std::vector<sram::SiteChoice> selection;
  // Mode 2: methodology knobs, used when prepare() receives calibration data.
  sram::SelectorConfig selector;
  // Mode 3: fallback hybrid word on the first default_sites sites.
  int default_sites = 2;
  sram::HybridWordConfig default_word;
};

class SramBackend final : public HardwareBackend {
 public:
  explicit SramBackend(SramBackendConfig cfg = {}) : cfg_(std::move(cfg)) {}

  std::string name() const override { return "sram"; }

  // Per-word access energy/area across the noisy sites, against the
  // homogeneous-8T-at-nominal-Vdd baseline. energy_nj is the summed per-word
  // read energy of the noisy sites (word counts depend on the workload; see
  // sram::activation_memory_report for a full-model account).
  EnergyReport energy_report() const override;

  // Carries the installed site selection into the replica's config — an
  // empty one included — so replica prepare() skips the (expensive,
  // calibration-driven) selector and installs identical hooks.
  BackendPtr replicate() const override;

  // The site choices actually installed by prepare().
  const std::vector<sram::SiteChoice>& selection() const { return installed_; }
  // Full methodology output; only populated when prepare() ran the selector
  // (mode 2).
  const sram::SelectionResult& selection_result() const {
    return selection_result_;
  }

  const SramBackendConfig& config() const { return cfg_; }

 protected:
  void do_prepare(nn::Module& net,
                  const std::vector<models::ActivationSite>& sites,
                  const data::Dataset* calibration) override;

 private:
  SramBackendConfig cfg_;
  // Set on a replica of a prepared backend: cfg_.selection is the decided
  // selection even when it is empty (no fallback to the default sites).
  bool selection_decided_ = false;
  std::vector<sram::SiteChoice> installed_;
  sram::SelectionResult selection_result_;
};

}  // namespace rhw::hw
