// Attack evaluation harness: clean accuracy, adversarial accuracy and
// Adversarial Loss (AL = clean - adversarial, in percent; paper Sec. II-A).
//
// Two-model interface implements the paper's attack modes:
//   Attack-SW: grad_net == eval_net == software baseline
//   SH:        grad_net = software baseline, eval_net = hardware model
//   HH:        grad_net == eval_net == hardware model
// For SRAM experiments the "hardware model" is the baseline with noise hooks
// attached; hooks are globally disabled during gradient computation, so HH
// and SH coincide there exactly as in the paper. (Stochastic-aware attacks —
// "eot_pgd", "square" — opt out of that gating by construction; see
// attacks/registry.hpp.)
//
// The adversary itself is a registry spec string (AdvEvalConfig::attack):
// the harness never names concrete attacks, mirroring how hardware is a
// hw::BackendRegistry spec on the other side of the experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/registry.hpp"
#include "data/dataset.hpp"
#include "hw/backend.hpp"

namespace rhw::attacks {

// Default evaluation seed, shared by AdvEvalConfig and clean_accuracy so the
// two entry points agree when callers stick to defaults.
inline constexpr uint64_t kDefaultEvalSeed = 0xADE5;

struct AdvEvalConfig {
  // AttackRegistry spec ("fgsm", "pgd:steps=7", "eot_pgd:samples=8",
  // "square:queries=200", ...). Must be non-empty: evaluate_attack and
  // adversarial_accuracy throw std::invalid_argument on an empty spec rather
  // than silently degrading to a clean-only pass.
  std::string attack = "fgsm";
  // L-inf budget; overrides any eps=... in the spec (sweeps drive this axis
  // per cell). At 0 every attack returns the inputs unchanged; note the
  // "adversarial" pass still measures them under its own noise streams, so
  // on stochastic backends adv_acc at eps 0 is a fresh noise draw, not a
  // bitwise copy of clean_acc (exp::SweepEngine reports adv = clean for
  // eps 0 rows instead of evaluating them).
  float epsilon = 0.1f;
  int64_t batch_size = 100;
  uint64_t seed = kDefaultEvalSeed;
};

struct AdvEvalResult {
  double clean_acc = 0.0;  // percent
  double adv_acc = 0.0;    // percent
  double adversarial_loss() const { return clean_acc - adv_acc; }
};

// -- seeding contract ---------------------------------------------------------
// Every evaluation pass pins the nets' hook noise streams from streams
// derived off the config seed:
//   * clean pass:   reseed eval_net with derive(seed, kCleanPassStream)
//                   before its first forward;
//   * adversarial pass: grad_net gets derive(seed, kGradPassStream) once;
//     batch b is crafted under seed derive(derive(seed, kCraftStream), b),
//     and eval_net is re-pinned with derive(derive(seed, kAdvPassStream), b)
//     AFTER crafting and before measuring batch b — so attacks that query or
//     reseed the eval net while crafting (Square's black-box queries,
//     EOT-PGD in HH mode) cannot perturb the measurement streams.
// Consequences:
//   * evaluate_attack and adversarial_accuracy report bit-identical adv_acc
//     for the same config (the clean pass can no longer advance the noise
//     stream the adversarial pass consumes);
//   * repeated calls with the same config are bit-identical — evaluation is a
//     pure function of (nets, dataset, config);
//   * nearby user seeds do not share per-batch streams (splitmix64 avalanche
//     instead of the old additive seed + 0x9E37 * counter derivation).
inline constexpr uint64_t kCleanPassStream = 0xC1EA2;
inline constexpr uint64_t kAdvPassStream = 0xADF0;
inline constexpr uint64_t kGradPassStream = 0x66AD;
inline constexpr uint64_t kCraftStream = 0xCAF7;

// Evaluates eval_net on ds cleanly and under adversaries built from
// cfg.attack: gradient attacks craft on grad_net, black-box attacks query
// eval_net. Both nets are run in eval mode. Composes clean_accuracy and
// adversarial_accuracy, so its numbers match those entry points bit-for-bit.
// Throws std::invalid_argument on an empty or malformed attack spec.
AdvEvalResult evaluate_attack(nn::Module& grad_net, nn::Module& eval_net,
                              const data::Dataset& ds,
                              const AdvEvalConfig& cfg);

// Adversarial accuracy only (percent); used by sweeps that already know the
// clean accuracy.
double adversarial_accuracy(nn::Module& grad_net, nn::Module& eval_net,
                            const data::Dataset& ds, const AdvEvalConfig& cfg);

// Clean accuracy (percent) with eval_net's hooks active; `seed` pins the
// noise streams for the pass (see the seeding contract above).
double clean_accuracy(nn::Module& eval_net, const data::Dataset& ds,
                      int64_t batch_size = 100,
                      uint64_t seed = kDefaultEvalSeed);

// Rows of x whose argmax prediction under net matches labels. One forward
// inside nn::Module::InferenceScope: net keeps no backward state afterwards.
int64_t count_correct(nn::Module& net, const Tensor& x,
                      const std::vector<int64_t>& labels);

// -- hardware-backend seam ----------------------------------------------------
// The paper's attack modes are a choice of (grad backend, eval backend):
// Attack-SW = (ideal, ideal), SH = (ideal, hardware), HH = (hardware,
// hardware). Both backends must be prepare()d.
AdvEvalResult evaluate_attack(hw::HardwareBackend& grad_hw,
                              hw::HardwareBackend& eval_hw,
                              const data::Dataset& ds,
                              const AdvEvalConfig& cfg);
double adversarial_accuracy(hw::HardwareBackend& grad_hw,
                            hw::HardwareBackend& eval_hw,
                            const data::Dataset& ds, const AdvEvalConfig& cfg);
double clean_accuracy(hw::HardwareBackend& eval_hw, const data::Dataset& ds,
                      int64_t batch_size = 100,
                      uint64_t seed = kDefaultEvalSeed);

}  // namespace rhw::attacks
