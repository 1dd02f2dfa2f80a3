// String-keyed factory for defenses — one of the six seams, a core::Registry
// (core/registry.hpp) like hw::BackendRegistry and attacks::AttackRegistry.
//
// Every harness, bench, and example selects its defense by config string
// instead of hand-wiring wrapper modules or one-off sweep binders:
//
//   auto defense = defenses::make_defense("smooth:sigma=0.25,samples=32");
//   defense->harden(model, ctx);                 // training-time phase
//   auto wrapped = defense->wrap(*backend);      // inference-time phase
//
// Spec grammar (core/spec.hpp, shared with every registry):
// "<key>" or "<key>:<opt>=<value>,...". Built-in keys and their options
// (docs/DEFENSES.md has the full story, composition rules and which paper
// figure each defense arm feeds):
//
//   none        (no options)
//               — identity defense: the undefended baseline row
//   adv_train   attack=<fgsm|pgd> steps=<n> eps=<f> ratio=<f> epochs=<n>
//               seed=<u64>
//               — training-time: retrains the model on a clean/adversarial
//                 batch mix crafted through the attack registry
//   smooth      sigma=<f> samples=<n> alpha=<f>
//               — randomized smoothing: majority vote over `samples` noisy
//                 passes; certifies a Clopper-Pearson/Cohen L2 radius
//                 (the sweep's certified-radius column)
//   jpeg_quant  bits=<n>
//               — input pixel-depth reduction to 2^bits levels (ref. [6])
//   gauss_aug   sigma=<f>
//               — single Gaussian input perturbation per forward (gated
//                 like SRAM bit errors)
//   quanos      samples=<n> high=<n> low=<n> eps=<f>
//               — QUANOS ANS-driven hybrid quantization (ref. [8]); needs a
//                 calibration dataset (DefenseContext::calibration)
//
// Unknown keys and unknown options throw std::invalid_argument naming the
// offending token and the full spec — the error contract core::Registry
// writes once for every spec-keyed seam (tests/defenses/test_defense_registry.cpp asserts
// parity). Downstream code can register additional defenses
// (registry().add) under new keys.
#pragma once

#include <string>

#include "core/registry.hpp"
#include "defenses/defense.hpp"

namespace rhw::defenses {

// Options parsed from the spec string: option name -> raw value text (shared
// grammar with hw::BackendOptions / attacks::AttackOptions, core/spec.hpp).
using DefenseOptions = core::SpecOptions;

class DefenseRegistry : public core::Registry<DefensePtr> {
 public:
  // Process-wide registry, built-ins registered on first use.
  static DefenseRegistry& instance();

 private:
  DefenseRegistry();
};

// Shorthand for DefenseRegistry::instance().create(spec).
DefensePtr make_defense(const std::string& spec);

// Display name ("None", "AdvTrain", "Smooth", ...) for a spec string; used
// by tables, plots and sweep JSON. Throws like make_defense on a bad spec.
std::string defense_display_name(const std::string& spec);

}  // namespace rhw::defenses
