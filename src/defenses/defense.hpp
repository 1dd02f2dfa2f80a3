// The defense seam: one stable interface, many swappable defenses — the third
// string-keyed seam after hw::HardwareBackend and attacks::Attack.
//
// The paper's central claim is that hardware noise acts as an adversarial
// defense; comparing it honestly needs the software baselines — adversarial
// training, randomized smoothing, input transforms — behind the same kind of
// seam the hardware and the attacks already have. A Defense acts in two
// phases, either of which may be a no-op:
//
//   * harden(model): mutate the cloned model before the hardware backend
//     prepares it (training-time defenses retrain, QUANOS requantizes);
//   * wrap(backend): build a wrapper backend around a *prepared* hardware
//     backend whose module() routes through the defense's wrapper module
//     (randomized smoothing, input discretization, Gaussian augmentation).
//
// Because wrap() composes around any prepared backend, defenses stack on top
// of noisy substrates: "smooth:sigma=0.25" over "sram:vdd=0.68" is a smoothed
// noisy-hardware classifier, declared entirely by two spec strings
// (exp::SweepBackendDef::defense). Construction is string-keyed through
// defenses::DefenseRegistry (defenses/registry.hpp), sharing the core/spec
// grammar and the token-naming error contract with every other seam.
//
// Determinism contract: harden() must be a pure function of (model, ctx,
// config) — prepare_arm re-runs it per replica (or clones the hardened
// prototype, see replicable_by_clone) and every replica must be
// bit-identical. Wrapper modules that draw randomness (smoothing, Gaussian
// augmentation) register hook seeders so nn::reseed_noise_streams pins their
// streams per evaluation pass exactly like the hardware noise hooks — a
// smoothed noisy arm sweeps bit-identically at any lane count.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/synth_cifar.hpp"
#include "hw/backend.hpp"
#include "models/vgg.hpp"
#include "nn/module.hpp"

namespace rhw::defenses {

// Everything a defense may consume while hardening one model. Both members
// are optional; defenses throw std::invalid_argument naming themselves when
// a needed input is missing.
struct DefenseContext {
  // Training data for training-time defenses (adv_train). Sweeps feed this
  // from exp::SweepGrid::train_data.
  const data::SynthCifar* train_data = nullptr;
  // Calibration subset for data-driven transforms (quanos' ANS estimate).
  // Sweeps feed this from exp::SweepBackendDef::calibration.
  const data::Dataset* calibration = nullptr;
};

// Abstract defense. Implementations are small config-holding classes
// registered in defenses/registry.cpp; like attacks, an instance is an
// immutable configuration whose methods are const and thread-safe.
class Defense {
 public:
  virtual ~Defense() = default;

  // Display name for tables/plots/JSON ("AdvTrain", "Smooth", "JpegQuant").
  virtual std::string name() const = 0;

  // True for defenses that change the training pipeline (adv_train): they
  // need DefenseContext::train_data, and their cost sits in harden().
  virtual bool training_time() const { return false; }

  // True when harden() only mutates weights and persistent buffers — state
  // models::clone_model carries — so prepare_arm may clone the hardened
  // prototype model instead of re-running an expensive harden per replica.
  // Defenses that install hooks (quanos) must return false.
  virtual bool replicable_by_clone() const { return false; }

  // True for defenses whose harden() consumes DefenseContext::calibration
  // (quanos). Lets sweep grids fail fast on a missing calibration set
  // instead of aborting mid-run from a worker lane.
  virtual bool needs_calibration() const { return false; }

  // Phase 1: mutate the model in place before hardware prepare(). Default
  // no-op (inference-time defenses).
  virtual void harden(models::Model& model, const DefenseContext& ctx) const;

  // Phase 2: build a wrapper backend around a prepared hardware backend, or
  // return null for pass-through defenses. The wrapper references `inner`
  // without owning it — PreparedArm keeps the inner backend alive alongside
  // the wrapper. Throws std::invalid_argument naming the defense when
  // `inner` has not been prepare()d.
  hw::BackendPtr wrap(hw::HardwareBackend& inner) const;

 protected:
  // Wrapper construction; `inner` is guaranteed prepared. Default:
  // pass-through (null).
  virtual hw::BackendPtr do_wrap(hw::HardwareBackend& inner) const;
};

using DefensePtr = std::unique_ptr<Defense>;

// One prepared (hardware spec, defense) arm: the hardened model clone, the
// hardware backend prepared on it, and the defense wrapper around that
// backend. Every sweep replica and serving lane is one of these, built by
// prepare_arm.
struct PreparedArm {
  models::Model model;
  hw::BackendPtr inner;    // the prepared hardware backend
  hw::BackendPtr wrapped;  // defense wrapper around inner; null = pass-through
  // The hardened model as it was before prepare(), which may rewrite
  // weights in place (crossbar mapping). Kept by a prototype whose defense
  // is replicable_by_clone, for its replicas to clone.
  std::optional<models::Model> hardened;
  // What attacks and servers run through: the wrapper if any, else inner.
  hw::HardwareBackend* serving() const {
    return wrapped ? wrapped.get() : inner.get();
  }
};

// Builds one arm of `hw_spec` under `defense` from the trained `baseline`
// (never mutated; the geometry feeds models::clone_model). This is the one
// rule for how a replica reproduces its prototype:
//   * model: with a prototype and a defense that is replicable_by_clone(),
//     clone the prototype's hardened model (as it was before prepare);
//     otherwise clone the baseline and run harden(ctx);
//   * backend: with a prototype, its inner->replicate() prepared without
//     calibration data; with no prototype (or a null replicate()), a fresh
//     hw::make_backend(hw_spec) prepared on ctx.calibration;
//   * wrap the prepared backend.
// A replica is bit-identical to its prototype: same logits under the same
// nn::reseed_noise_streams seed, same energy_report(). The prototype must be
// fully built; concurrent calls may share it (they only read it).
PreparedArm prepare_arm(const models::Model& baseline, float width_mult,
                        int64_t in_size, const std::string& hw_spec,
                        const Defense& defense, const DefenseContext& ctx,
                        const PreparedArm* prototype = nullptr);

// Implemented by wrapper backends whose defense yields a robustness
// certificate (randomized smoothing). exp::SweepEngine probes for this with
// dynamic_cast and reports the result as the sweep's certified-radius column
// (rhw-sweep-v3 JSON).
class Certifier {
 public:
  virtual ~Certifier() = default;

  // Mean certified L2 radius over ds: per example, the Cohen et al. radius
  // when the smoothed prediction is correct and certifiable, else 0. `seed`
  // pins the certification noise streams (reseed_noise_streams), so the
  // value is a pure function of (model, ds, config, seed).
  virtual double mean_certified_radius(const data::Dataset& ds,
                                       int64_t batch_size, uint64_t seed) = 0;
};

// Backend decorator shared by the inference-time defenses: serves a wrapper
// module built around a prepared inner backend's module. Energy/area start
// from the inner backend's report (the substrate still pays) with a
// "defense" line item naming the wrapper; defenses with real overhead
// (smooth's N× forwards, quanos' requantized word sizes) override
// energy_report to price it, so the shootout can rank defenses at
// iso-energy.
class WrappedBackend : public hw::HardwareBackend {
 public:
  // `defense_key` labels name() as "<defense_key>+<inner name>", e.g.
  // "jpeg_quant+sram". The wrapper module must already route through
  // inner.module().
  WrappedBackend(std::string defense_key, hw::HardwareBackend& inner,
                 nn::ModulePtr wrapper);

  std::string name() const override;
  hw::EnergyReport energy_report() const override;

  hw::HardwareBackend& inner() const { return *inner_; }

 protected:
  void do_prepare(nn::Module& net,
                  const std::vector<models::ActivationSite>& sites,
                  const data::Dataset* calibration) override;

 private:
  std::string defense_key_;
  hw::HardwareBackend* inner_;  // non-owning
  nn::ModulePtr wrapper_;
};

}  // namespace rhw::defenses
