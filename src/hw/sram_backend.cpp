#include "hw/sram_backend.hpp"

#include <algorithm>

#include "core/format.hpp"

namespace rhw::hw {

void SramBackend::do_prepare(nn::Module& net,
                             const std::vector<models::ActivationSite>& sites,
                             const data::Dataset* calibration) {
  installed_.clear();
  if (selection_decided_ || !cfg_.selection.empty()) {
    installed_ = cfg_.selection;
  } else if (calibration != nullptr && calibration->size() > 0) {
    sram::SelectorConfig scfg = cfg_.selector;
    scfg.vdd = cfg_.vdd;
    selection_result_ = sram::select_layers(
        net, std::span<const models::ActivationSite>(sites), *calibration,
        scfg, cfg_.ber);
    installed_ = selection_result_.selected;
  } else {
    const int count =
        std::min<int>(cfg_.default_sites, static_cast<int>(sites.size()));
    for (int s = 0; s < count; ++s) {
      sram::SiteChoice choice;
      choice.site_index = static_cast<size_t>(s);
      choice.site_label = sites[static_cast<size_t>(s)].label;
      choice.word = cfg_.default_word;
      installed_.push_back(choice);
    }
  }
  if (cfg_.memory == SramMemory::kActivations) {
    sram::apply_selection(std::span<const models::ActivationSite>(sites),
                          installed_, cfg_.vdd, cfg_.seed, cfg_.ber);
    return;
  }
  // The k-th choice corrupts the k-th weight layer, not the layer feeding
  // the chosen site.
  const auto layers = nn::collect_weight_layers(net);
  for (size_t k = 0; k < installed_.size() && k < layers.size(); ++k) {
    sram::corrupt_layer_weights(*layers[k],
                                {installed_[k].word, cfg_.vdd, cfg_.seed},
                                cfg_.ber);
  }
}

BackendPtr SramBackend::replicate() const {
  auto replica = std::make_unique<SramBackend>(cfg_);
  if (prepared()) {
    // Even an empty selection is decided: a calibration that chose no site
    // must not fall back to the default sites on the replica.
    replica->cfg_.selection = installed_;
    replica->selection_decided_ = true;
  }
  return replica;
}

EnergyReport SramBackend::energy_report() const {
  EnergyReport report;
  report.backend = name();
  const sram::SramEnergyModel energy;
  sram::HybridWordConfig homogeneous;
  homogeneous.num_8t = homogeneous.total_bits;
  const double baseline_fj =
      energy.word_read_energy_fj(homogeneous, energy.params().nominal_vdd);
  double total_fj = 0.0;
  for (const auto& choice : installed_) {
    const double word_fj = energy.word_read_energy_fj(choice.word, cfg_.vdd);
    total_fj += word_fj;
    report.area_um2 += energy.word_area_um2(choice.word);
    report.details.emplace_back(
        choice.site_label + "@" + choice.word.ratio_label(),
        core::fmt(word_fj, 3) + " fJ/word (8T@nominal " +
            core::fmt(baseline_fj, 3) + ")");
  }
  report.energy_nj = total_fj * 1e-6;
  report.details.emplace_back("vdd", core::fmt(cfg_.vdd, 2) + " V");
  report.details.emplace_back("noisy_sites",
                              std::to_string(installed_.size()));
  return report;
}

}  // namespace rhw::hw
