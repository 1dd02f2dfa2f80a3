// Memristive-crossbar backend: the paper's Sec. III-B substrate behind the
// HardwareBackend seam.
//
// prepare() maps every weight layer onto crossbar tiles and writes the
// effective weights back into the layers, installing the ungated
// ADC/read-noise/gradient hooks (xbar/mapper.hpp). Inference then runs
// through the layers' normal forward path.
#pragma once

#include "hw/backend.hpp"
#include "xbar/energy_model.hpp"
#include "xbar/mapper.hpp"

namespace rhw::hw {

class XbarBackend final : public HardwareBackend {
 public:
  explicit XbarBackend(xbar::XbarMapConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "xbar"; }

  // Whole-model analog MVM energy (one inference, every tile read once) and
  // tile silicon area from the xbar energy model.
  EnergyReport energy_report() const override;

  // Mapping is deterministic from the config (cfg.seed), so a config copy
  // reproduces the prepared state exactly.
  BackendPtr replicate() const override;

  const xbar::XbarMapReport& map_report() const { return report_; }

  const xbar::XbarMapConfig& config() const { return cfg_; }

 protected:
  void do_prepare(nn::Module& net,
                  const std::vector<models::ActivationSite>& sites,
                  const data::Dataset* calibration) override;

 private:
  xbar::XbarMapConfig cfg_;
  xbar::XbarMapReport report_;
};

}  // namespace rhw::hw
