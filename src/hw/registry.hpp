// String-keyed factory for hardware backends.
//
// Every example, bench, and test selects hardware by config string instead of
// hand-wiring mappers and hooks:
//
//   auto backend = hw::make_backend("xbar:size=32,rmin=10e3");
//   backend->prepare(model);
//
// Spec grammar: "<key>" or "<key>:<opt>=<value>,<opt>=<value>,...". Built-in
// keys and their options:
//
//   ideal   (no options)
//   sram    vdd=<V> seed=<u64> sites=<n> num_8t=<n> eps=<f> eval_count=<n>
//           memory=<activations|weights>
//           — sites/num_8t set the fallback configuration; eps/eval_count
//             tune the Fig. 4 selector used when prepare() gets calibration
//             data (eps=0, the default, picks it by class count); memory
//             names what the hybrid words hold
//   xbar    size=<n> rows=<n> cols=<n> rmin=<ohm> rmax=<ohm> adc_bits=<n>
//           seed=<u64> variation=<0|1> calibration=<0|1> read_noise=<f>
//           grad_noise=<f> model=<ideal|fast|mna>
//           — rmin without rmax keeps the spec's ON/OFF ratio constant
//
// Unknown keys and unknown options throw std::invalid_argument. Downstream
// code can register additional backends (registry().add) under new keys.
// docs/BACKENDS.md documents every knob with defaults and which paper
// figure/table each configuration reproduces; attacks::AttackRegistry
// (attacks/registry.hpp) is the same seam for the adversary axis and
// defenses::DefenseRegistry (defenses/registry.hpp) for the defense axis —
// defense wrappers compose around any prepared backend (docs/DEFENSES.md).
#pragma once

#include <string>

#include "core/registry.hpp"
#include "hw/backend.hpp"

namespace rhw::hw {

// Options parsed from the spec string: option name -> raw value text. The
// grammar and typed extraction live in core/spec.hpp, the map and its error
// contract in core/registry.hpp, shared by every seam.
using BackendOptions = core::SpecOptions;

class BackendRegistry : public core::Registry<BackendPtr> {
 public:
  // Process-wide registry, built-ins registered on first use.
  static BackendRegistry& instance();

 private:
  BackendRegistry();
};

// Shorthand for BackendRegistry::instance().create(spec).
BackendPtr make_backend(const std::string& spec);

}  // namespace rhw::hw
