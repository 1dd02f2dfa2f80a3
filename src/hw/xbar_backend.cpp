#include "hw/xbar_backend.hpp"

#include "core/format.hpp"

namespace rhw::hw {

void XbarBackend::do_prepare(nn::Module& net,
                             const std::vector<models::ActivationSite>& sites,
                             const data::Dataset* calibration) {
  (void)sites;        // crossbars live in the weight layers, not the
  (void)calibration;  // activation memories
  mapped_ = xbar::map_onto_crossbars_detailed(net, cfg_.map, cfg_.retain_tiles);
}

BackendPtr XbarBackend::replicate() const {
  return std::make_unique<XbarBackend>(cfg_);
}

EnergyReport XbarBackend::energy_report() const {
  EnergyReport report;
  report.backend = name();
  const xbar::XbarEnergyModel energy;
  const auto& spec = cfg_.map.spec;
  report.energy_nj = energy.model_mvm_energy_nj(mapped_.report.num_tiles, spec,
                                                cfg_.map.adc_bits);
  report.area_um2 =
      static_cast<double>(mapped_.report.num_tiles) * energy.tile_area_um2(spec);
  report.details.emplace_back("tiles",
                              std::to_string(mapped_.report.num_tiles));
  report.details.emplace_back(
      "tile", std::to_string(spec.rows) + "x" + std::to_string(spec.cols));
  report.details.emplace_back("adc_bits", std::to_string(cfg_.map.adc_bits));
  report.details.emplace_back(
      "mean_weight_err", core::fmt(mapped_.report.mean_rel_weight_error, 4));
  return report;
}

}  // namespace rhw::hw
