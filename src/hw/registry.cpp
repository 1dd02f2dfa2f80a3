#include "hw/registry.hpp"

#include <stdexcept>

#include "core/spec.hpp"
#include "hw/ideal_backend.hpp"
#include "hw/sram_backend.hpp"
#include "hw/xbar_backend.hpp"

namespace rhw::hw {

namespace {

// Typed option extraction with leftover rejection, shared with the attack
// registry (core/spec.hpp). The "backend" domain string keeps the historical
// error-message shape ("backend option rmin: bad number 'abc'").
core::OptionReader reader_for(const std::string& backend,
                              const BackendOptions& opts) {
  return core::OptionReader("backend", backend, opts);
}

BackendPtr make_ideal(const BackendOptions& opts) {
  auto reader = reader_for("ideal", opts);
  reader.finish();
  return std::make_unique<IdealBackend>();
}

BackendPtr make_sram(const BackendOptions& opts) {
  auto reader = reader_for("sram", opts);
  SramBackendConfig cfg;
  cfg.vdd = reader.number("vdd", cfg.vdd);
  cfg.seed = reader.integer("seed", cfg.seed);
  cfg.default_sites = static_cast<int>(
      reader.integer("sites", static_cast<uint64_t>(cfg.default_sites)));
  cfg.default_word.num_8t = static_cast<int>(reader.integer(
      "num_8t", static_cast<uint64_t>(cfg.default_word.num_8t)));
  cfg.selector.epsilon =
      static_cast<float>(reader.number("eps", cfg.selector.epsilon));
  cfg.selector.eval_count = static_cast<int64_t>(reader.integer(
      "eval_count", static_cast<uint64_t>(cfg.selector.eval_count)));
  reader.finish();
  return std::make_unique<SramBackend>(std::move(cfg));
}

BackendPtr make_xbar(const BackendOptions& opts) {
  auto reader = reader_for("xbar", opts);
  XbarBackendConfig cfg;
  auto& spec = cfg.map.spec;
  const uint64_t size = reader.integer("size", 0);
  if (size > 0) {
    spec.rows = static_cast<int64_t>(size);
    spec.cols = static_cast<int64_t>(size);
  }
  spec.rows = static_cast<int64_t>(
      reader.integer("rows", static_cast<uint64_t>(spec.rows)));
  spec.cols = static_cast<int64_t>(
      reader.integer("cols", static_cast<uint64_t>(spec.cols)));
  const double ratio = spec.on_off_ratio();
  const double r_min = reader.number("rmin", spec.r_min);
  if (r_min != spec.r_min) {
    spec.r_min = r_min;
    spec.r_max = r_min * ratio;  // constant ON/OFF unless rmax given
  }
  spec.r_max = reader.number("rmax", spec.r_max);
  cfg.map.adc_bits = static_cast<int>(
      reader.integer("adc_bits", static_cast<uint64_t>(cfg.map.adc_bits)));
  cfg.map.seed = reader.integer("seed", cfg.map.seed);
  cfg.map.process_variation =
      reader.integer("variation", cfg.map.process_variation ? 1 : 0) != 0;
  cfg.map.gain_calibration =
      reader.integer("calibration", cfg.map.gain_calibration ? 1 : 0) != 0;
  cfg.map.read_noise_sigma =
      reader.number("read_noise", cfg.map.read_noise_sigma);
  cfg.map.grad_noise_scale =
      reader.number("grad_noise", cfg.map.grad_noise_scale);
  cfg.retain_tiles = reader.integer("retain_tiles", 1) != 0;
  const std::string circuit = reader.text("model", "fast");
  if (circuit == "ideal") {
    cfg.map.model = xbar::CircuitModel::kIdeal;
  } else if (circuit == "fast") {
    cfg.map.model = xbar::CircuitModel::kFastApprox;
  } else if (circuit == "mna") {
    cfg.map.model = xbar::CircuitModel::kExactMna;
  } else {
    throw std::invalid_argument("backend xbar: unknown circuit model '" +
                                circuit + "' (ideal|fast|mna)");
  }
  reader.finish();
  return std::make_unique<XbarBackend>(cfg);
}

}  // namespace

BackendRegistry::BackendRegistry()
    : Registry("backend", "hardware backend",
               {{"ideal", make_ideal},
                {"sram", make_sram},
                {"xbar", make_xbar}}) {}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

BackendPtr make_backend(const std::string& spec) {
  return BackendRegistry::instance().create(spec);
}

}  // namespace rhw::hw
