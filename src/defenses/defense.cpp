#include "defenses/defense.hpp"

#include <stdexcept>

#include "hw/registry.hpp"
#include "models/zoo.hpp"

namespace rhw::defenses {

void Defense::harden(models::Model&, const DefenseContext&) const {}

hw::BackendPtr Defense::wrap(hw::HardwareBackend& inner) const {
  if (!inner.prepared()) {
    throw std::invalid_argument("defense " + name() +
                                ": cannot wrap backend '" + inner.name() +
                                "' before its prepare()");
  }
  return do_wrap(inner);
}

hw::BackendPtr Defense::do_wrap(hw::HardwareBackend&) const { return nullptr; }

WrappedBackend::WrappedBackend(std::string defense_key,
                               hw::HardwareBackend& inner,
                               nn::ModulePtr wrapper)
    : defense_key_(std::move(defense_key)),
      inner_(&inner),
      wrapper_(std::move(wrapper)) {
  if (!wrapper_) {
    throw std::invalid_argument("WrappedBackend: null wrapper module");
  }
  if (!inner_->prepared()) {
    throw std::invalid_argument("WrappedBackend: inner backend '" +
                                inner_->name() + "' is not prepared");
  }
  prepare(*wrapper_);  // binds module() to the owned wrapper
}

std::string WrappedBackend::name() const {
  return defense_key_ + "+" + inner_->name();
}

hw::EnergyReport WrappedBackend::energy_report() const {
  hw::EnergyReport report = inner_->energy_report();
  report.details.emplace_back("defense", defense_key_);
  return report;
}

void WrappedBackend::do_prepare(nn::Module&,
                                const std::vector<models::ActivationSite>&,
                                const data::Dataset*) {}

PreparedArm prepare_arm(const models::Model& baseline, float width_mult,
                        int64_t in_size, const std::string& hw_spec,
                        const Defense& defense, const DefenseContext& ctx,
                        const PreparedArm* prototype) {
  PreparedArm arm;
  const bool clone_hardened = defense.replicable_by_clone();
  if (prototype != nullptr && clone_hardened) {
    // Weight-only hardening (adv_train): clone the prototype's hardened
    // weights instead of re-training. They never change once the prototype
    // is built, so concurrent replicas may read them.
    arm.model =
        models::clone_model(*prototype->hardened, width_mult, in_size);
  } else {
    arm.model = models::clone_model(baseline, width_mult, in_size);
    // Hardening that installs hooks (quanos) re-runs deterministically —
    // clone_model would not carry it.
    defense.harden(arm.model, ctx);
    if (clone_hardened) {
      arm.hardened = models::clone_model(arm.model, width_mult, in_size);
    }
  }
  // A replica reproduces the prototype's prepared state without the
  // (expensive) calibration; only a first arm, or a backend that cannot
  // replicate, is built from the spec and calibrated.
  if (prototype != nullptr) arm.inner = prototype->inner->replicate();
  const data::Dataset* calibration = arm.inner ? nullptr : ctx.calibration;
  if (!arm.inner) arm.inner = hw::make_backend(hw_spec);
  arm.inner->prepare(arm.model, calibration);
  arm.wrapped = defense.wrap(*arm.inner);
  return arm;
}

}  // namespace rhw::defenses
