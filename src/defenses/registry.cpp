#include "defenses/registry.hpp"

#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "defenses/adv_train.hpp"
#include "defenses/input_transforms.hpp"
#include "defenses/smoothing.hpp"
#include "quant/pixel_discretizer.hpp"
#include "quant/quanos.hpp"

namespace rhw::defenses {

namespace {

core::OptionReader reader_for(const std::string& defense,
                              const DefenseOptions& opts) {
  return core::OptionReader("defense", defense, opts);
}

// Count knobs (samples, epochs, steps, bits) must be >= 1: a zero would make
// the defense a silent no-op and the shootout would compare against a row
// that defended nothing — the same failure mode the attack registry rejects
// for zero-iteration attacks.
int positive_int(core::OptionReader& reader, const std::string& defense,
                 const std::string& key, int fallback) {
  const uint64_t v = reader.integer(key, static_cast<uint64_t>(fallback));
  if (v == 0) {
    throw std::invalid_argument("defense " + defense + ": option " + key +
                                " must be >= 1 (0 would be a no-op defense)");
  }
  if (v > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("defense " + defense + ": option " + key +
                                " value " + std::to_string(v) +
                                " exceeds the supported range");
  }
  return static_cast<int>(v);
}

// -- concrete defenses --------------------------------------------------------

class NoneDefense final : public Defense {
 public:
  std::string name() const override { return "None"; }
};

class AdvTrainDefense final : public Defense {
 public:
  explicit AdvTrainDefense(AdvTrainConfig cfg) : cfg_(std::move(cfg)) {}
  std::string name() const override { return "AdvTrain"; }
  bool training_time() const override { return true; }
  // Retraining only touches weights/BN buffers, so SweepEngine clones the
  // hardened prototype instead of re-training per lane.
  bool replicable_by_clone() const override { return true; }
  void harden(models::Model& model, const DefenseContext& ctx) const override {
    if (ctx.train_data == nullptr) {
      throw std::invalid_argument(
          "defense adv_train: needs training data (DefenseContext::"
          "train_data / SweepGrid::train_data)");
    }
    (void)adversarial_train(*model.net, *ctx.train_data, cfg_);
  }

 private:
  AdvTrainConfig cfg_;
};

class SmoothDefense final : public Defense {
 public:
  explicit SmoothDefense(SmoothConfig cfg) : cfg_(cfg) {}
  std::string name() const override { return "Smooth"; }

 protected:
  hw::BackendPtr do_wrap(hw::HardwareBackend& inner) const override {
    return std::make_unique<SmoothedBackend>(inner, cfg_);
  }

 private:
  SmoothConfig cfg_;
};

class JpegQuantDefense final : public Defense {
 public:
  explicit JpegQuantDefense(quant::PixelDiscretizer disc) : disc_(disc) {}
  std::string name() const override { return "JpegQuant"; }

 protected:
  hw::BackendPtr do_wrap(hw::HardwareBackend& inner) const override {
    return std::make_unique<WrappedBackend>(
        "jpeg_quant", inner,
        std::make_unique<quant::DiscretizedModel>(inner.module(), disc_));
  }

 private:
  quant::PixelDiscretizer disc_;
};

class GaussAugDefense final : public Defense {
 public:
  explicit GaussAugDefense(GaussAugConfig cfg) : cfg_(cfg) {}
  std::string name() const override { return "GaussAug"; }

 protected:
  hw::BackendPtr do_wrap(hw::HardwareBackend& inner) const override {
    return std::make_unique<WrappedBackend>(
        "gauss_aug", inner,
        std::make_unique<GaussAugModule>(inner.module(), cfg_));
  }

 private:
  GaussAugConfig cfg_;
};

// Identity wrapper module: routes straight through the inner net. Lets a
// harden-phase defense surface as a WrappedBackend purely so its energy
// overhead shows up on the serving backend's report.
class ForwardingModule final : public nn::Module {
 public:
  explicit ForwardingModule(nn::Module& inner) : inner_(&inner) {}
  std::vector<nn::Param*> parameters() override {
    return inner_->parameters();
  }
  std::vector<nn::Module*> children() override { return {inner_}; }
  std::vector<std::pair<std::string, Tensor*>> named_state() override {
    return {};
  }
  std::string type_name() const override { return "ForwardingModule"; }
  void set_training(bool training) override {
    nn::Module::set_training(training);
    inner_->set_training(training);
  }

 protected:
  Tensor do_forward(const Tensor& x) override { return inner_->forward(x); }
  Tensor do_backward(const Tensor& grad_out) override {
    return inner_->backward(grad_out);
  }

 private:
  nn::Module* inner_;  // non-owning
};

// QUANOS activations live in requantized words: the median-ANS split assigns
// low_bits to half the weight layers by construction and high_bits to the
// rest, so *activation-memory* read energy scales with the mean word size
// relative to 8-bit words. The sram backend's report is exactly that
// (per-word read energy of the noisy activation sites), so it takes the
// credit; compute-denominated reports (xbar's analog MVM energy) and the
// unpriced ideal backend keep their number — for those the requantized word
// sizes surface as line items only, so downstream tooling can still price
// its own memory model at iso-energy.
class QuanosEnergyBackend final : public WrappedBackend {
 public:
  QuanosEnergyBackend(hw::HardwareBackend& inner, quant::QuanosConfig cfg)
      : WrappedBackend("quanos", inner,
                       std::make_unique<ForwardingModule>(inner.module())),
        cfg_(cfg) {}

  hw::EnergyReport energy_report() const override {
    hw::EnergyReport report = WrappedBackend::energy_report();
    const double mean_bits = 0.5 * (cfg_.high_bits + cfg_.low_bits);
    const double scale = mean_bits / 8.0;
    char scale_buf[32];
    std::snprintf(scale_buf, sizeof scale_buf, "%.3f", scale);
    report.details.emplace_back("quanos_word_bits",
                                std::to_string(cfg_.high_bits) + "b/" +
                                    std::to_string(cfg_.low_bits) + "b");
    report.details.emplace_back("quanos_word_scale", scale_buf);
    if (report.backend.rfind("sram", 0) == 0) {
      const double substrate_nj = report.energy_nj;
      report.energy_nj = substrate_nj * scale;
      char substrate_buf[32];
      std::snprintf(substrate_buf, sizeof substrate_buf, "%.4g",
                    substrate_nj);
      report.details.emplace_back("substrate_energy_nj", substrate_buf);
    }
    return report;
  }

 private:
  quant::QuanosConfig cfg_;
};

class QuanosDefense final : public Defense {
 public:
  explicit QuanosDefense(quant::QuanosConfig cfg) : cfg_(cfg) {}
  std::string name() const override { return "QUANOS"; }
  bool needs_calibration() const override { return true; }
  // apply_quanos installs activation fake-quantization hooks, which
  // clone_model does not carry — every replica re-runs the (deterministic)
  // requantization, so replicable_by_clone stays false.
  void harden(models::Model& model, const DefenseContext& ctx) const override {
    if (ctx.calibration == nullptr) {
      throw std::invalid_argument(
          "defense quanos: needs a calibration dataset (DefenseContext::"
          "calibration / SweepBackendDef::calibration)");
    }
    (void)quant::apply_quanos(*model.net, *ctx.calibration, cfg_);
  }

 protected:
  hw::BackendPtr do_wrap(hw::HardwareBackend& inner) const override {
    return std::make_unique<QuanosEnergyBackend>(inner, cfg_);
  }

 private:
  quant::QuanosConfig cfg_;
};

// -- factories ----------------------------------------------------------------

DefensePtr make_none(const DefenseOptions& opts) {
  auto reader = reader_for("none", opts);
  reader.finish();
  return std::make_unique<NoneDefense>();
}

DefensePtr make_adv_train(const DefenseOptions& opts) {
  auto reader = reader_for("adv_train", opts);
  AdvTrainConfig cfg;
  cfg.attack = reader.text("attack", cfg.attack);
  if (cfg.attack != "fgsm" && cfg.attack != "pgd") {
    throw std::invalid_argument(
        "defense adv_train: option attack must be fgsm or pgd (got '" +
        cfg.attack + "')");
  }
  cfg.steps = positive_int(reader, "adv_train", "steps", cfg.steps);
  cfg.epsilon = static_cast<float>(reader.number("eps", cfg.epsilon));
  cfg.adv_fraction =
      static_cast<float>(reader.number("ratio", cfg.adv_fraction));
  if (cfg.adv_fraction < 0.f || cfg.adv_fraction > 1.f) {
    throw std::invalid_argument(
        "defense adv_train: option ratio must be in [0, 1] (got " +
        std::to_string(cfg.adv_fraction) + ")");
  }
  cfg.epochs = positive_int(reader, "adv_train", "epochs", cfg.epochs);
  cfg.seed = reader.integer("seed", cfg.seed);
  reader.finish();
  return std::make_unique<AdvTrainDefense>(std::move(cfg));
}

DefensePtr make_smooth(const DefenseOptions& opts) {
  auto reader = reader_for("smooth", opts);
  SmoothConfig cfg;
  cfg.sigma = static_cast<float>(reader.number("sigma", cfg.sigma));
  if (!(cfg.sigma > 0.f)) {
    throw std::invalid_argument(
        "defense smooth: option sigma must be > 0 (got " +
        std::to_string(cfg.sigma) + ")");
  }
  cfg.samples = positive_int(reader, "smooth", "samples", cfg.samples);
  cfg.alpha = reader.number("alpha", cfg.alpha);
  if (!(cfg.alpha > 0.0) || !(cfg.alpha < 0.5)) {
    throw std::invalid_argument(
        "defense smooth: option alpha must be in (0, 0.5) (got " +
        std::to_string(cfg.alpha) + ")");
  }
  reader.finish();
  return std::make_unique<SmoothDefense>(cfg);
}

DefensePtr make_jpeg_quant(const DefenseOptions& opts) {
  auto reader = reader_for("jpeg_quant", opts);
  quant::PixelDiscretizer disc;
  disc.bits = positive_int(reader, "jpeg_quant", "bits", disc.bits);
  if (disc.bits > 8) {
    throw std::invalid_argument(
        "defense jpeg_quant: option bits must be in [1, 8] (got " +
        std::to_string(disc.bits) + ")");
  }
  reader.finish();
  return std::make_unique<JpegQuantDefense>(disc);
}

DefensePtr make_gauss_aug(const DefenseOptions& opts) {
  auto reader = reader_for("gauss_aug", opts);
  GaussAugConfig cfg;
  cfg.sigma = static_cast<float>(reader.number("sigma", cfg.sigma));
  if (!(cfg.sigma > 0.f)) {
    throw std::invalid_argument(
        "defense gauss_aug: option sigma must be > 0 (got " +
        std::to_string(cfg.sigma) + ")");
  }
  reader.finish();
  return std::make_unique<GaussAugDefense>(cfg);
}

DefensePtr make_quanos(const DefenseOptions& opts) {
  auto reader = reader_for("quanos", opts);
  quant::QuanosConfig cfg;
  cfg.sample_count = positive_int(reader, "quanos", "samples",
                                  static_cast<int>(cfg.sample_count));
  cfg.high_bits = positive_int(reader, "quanos", "high", cfg.high_bits);
  cfg.low_bits = positive_int(reader, "quanos", "low", cfg.low_bits);
  cfg.ans_epsilon = static_cast<float>(reader.number("eps", cfg.ans_epsilon));
  reader.finish();
  return std::make_unique<QuanosDefense>(cfg);
}

}  // namespace

DefenseRegistry::DefenseRegistry()
    : Registry("defense", "defense",
               {{"none", make_none},
                {"adv_train", make_adv_train},
                {"smooth", make_smooth},
                {"jpeg_quant", make_jpeg_quant},
                {"gauss_aug", make_gauss_aug},
                {"quanos", make_quanos}}) {}

DefenseRegistry& DefenseRegistry::instance() {
  static DefenseRegistry registry;
  return registry;
}

DefensePtr make_defense(const std::string& spec) {
  return DefenseRegistry::instance().create(spec);
}

std::string defense_display_name(const std::string& spec) {
  return make_defense(spec)->name();
}

}  // namespace rhw::defenses
