#include "hw/xbar_backend.hpp"

#include "core/format.hpp"

namespace rhw::hw {

void XbarBackend::do_prepare(nn::Module& net,
                             const std::vector<models::ActivationSite>& sites,
                             const data::Dataset* calibration) {
  (void)sites;        // crossbars live in the weight layers, not the
  (void)calibration;  // activation memories
  report_ = xbar::map_onto_crossbars(net, cfg_);
}

BackendPtr XbarBackend::replicate() const {
  return std::make_unique<XbarBackend>(cfg_);
}

EnergyReport XbarBackend::energy_report() const {
  EnergyReport report;
  report.backend = name();
  const xbar::XbarEnergyModel energy;
  const auto& spec = cfg_.spec;
  report.energy_nj =
      energy.model_mvm_energy_nj(report_.num_tiles, spec, cfg_.adc_bits);
  report.area_um2 =
      static_cast<double>(report_.num_tiles) * energy.tile_area_um2(spec);
  report.details.emplace_back("tiles", std::to_string(report_.num_tiles));
  report.details.emplace_back(
      "tile", std::to_string(spec.rows) + "x" + std::to_string(spec.cols));
  report.details.emplace_back("adc_bits", std::to_string(cfg_.adc_bits));
  report.details.emplace_back(
      "mean_weight_err", core::fmt(report_.mean_rel_weight_error, 4));
  return report;
}

}  // namespace rhw::hw
