// String-keyed factory for attacks — the adversary-side seam, a
// core::Registry (core/registry.hpp) like hw::BackendRegistry.
//
// Every harness, bench, and example selects its adversary by config string
// instead of hand-wiring attack structs:
//
//   auto attack = attacks::make_attack("pgd:steps=7,alpha=0.01");
//   Tensor adv = attack->perturb(ctx, images, labels);
//
// Spec grammar (core/spec.hpp): "<key>" or "<key>:<opt>=<value>,...".
// Built-in keys and their options (docs/ATTACKS.md has the full story and
// which paper figure each combination reproduces):
//
//   fgsm     eps=<f>
//            — single signed-gradient step (Goodfellow et al.)
//   pgd      eps=<f> steps=<n> alpha=<f> rs=<0|1>
//            — iterated projected FGSM (Madry et al.); alpha=0 means
//              2.5*eps/steps, rs toggles the random start
//   eot_pgd  eps=<f> steps=<n> alpha=<f> rs=<0|1> samples=<n>
//            — PGD whose per-step gradient is averaged over `samples`
//              independently-reseeded noisy forward/backward passes
//              (expectation over transformation): the canonical adaptive
//              attack on stochastic hardware
//   mifgsm   eps=<f> steps=<n> alpha=<f> decay=<f>
//            — momentum iterative FGSM (Dong et al.); alpha=0 means
//              eps/steps
//   square   eps=<f> queries=<n> p=<f>
//            — gradient-free black-box random search (Andriushchenko et
//              al.); `queries` bounds the forward budget, `p` is the initial
//              window-area fraction
//
// Unknown keys and unknown options throw std::invalid_argument naming the
// offending token and the full spec. Downstream code can register additional
// attacks (registry().add) under new keys. Every other seam speaks the
// same grammar, e.g. hw::BackendRegistry (hw/registry.hpp) for substrates and
// defenses::DefenseRegistry (defenses/registry.hpp) for defenses.
#pragma once

#include <string>

#include "attacks/attack.hpp"
#include "core/registry.hpp"

namespace rhw::attacks {

// Options parsed from the spec string: option name -> raw value text (shared
// grammar with hw::BackendOptions, see core/spec.hpp).
using AttackOptions = core::SpecOptions;

class AttackRegistry : public core::Registry<AttackPtr> {
 public:
  // Process-wide registry, built-ins registered on first use.
  static AttackRegistry& instance();

 private:
  AttackRegistry();
};

// Shorthand for AttackRegistry::instance().create(spec).
AttackPtr make_attack(const std::string& spec);

// Display name ("FGSM", "EOT-PGD", ...) for a spec string; used by tables,
// plots and sweep JSON. Throws like make_attack on a bad spec.
std::string attack_display_name(const std::string& spec);

}  // namespace rhw::attacks
