// ExperimentSpec: the declarative description of one full experiment — the
// fourth string-keyed seam, closing the loop the first three opened.
//
// Hardware, attacks and defenses are already spec strings; an *experiment*
// (the paper's unit of result: an AL(eps) grid per attack mode per substrate
// per defense, Figs. 5-8, Tables I-III) is the composition of all three plus
// model/dataset selection, mode pairings, epsilon axes, trials and a seed.
// ExperimentSpec lifts that composition into the same core/spec grammar,
// extended with list/section syntax:
//
//   scalars    key=value                 trials=5  seed=7  batch=100
//   sections   spec strings per domain   model=vgg8:width=0.125,in=16
//                                        dataset=tiny:classes=10,train=100
//                                        train=quick:epochs=4
//                                        engine=simd:mr=6,nr=16
//   lists      axis+=item (append)       backends+=xbar:rmin=1e5+smooth:sigma=0.25
//              axis=item  (replace)      attacks=pgd@0.031,0.062
//              axis=      (clear)        modes=
//
// List item grammars (all built on core/spec.hpp parsing, all reporting
// token-naming std::invalid_argument errors like the three registries):
//
//   backends   [key=]hw-spec[+defense-spec][@calib]
//              "x32=xbar:size=32", "ideal+jpeg_quant:bits=4",
//              "sram:vdd=0.68+smooth:sigma=0.25@calib". The key defaults to
//              the hw key (plus "+<defense key>" when defended); @calib
//              hands the arm the experiment's calibration (test) set.
//   modes      label=grad/eval | label=key (white-box: grad == eval)
//              "SH-Cross32=ideal/x32", "QUANOS=quanos"
//   attacks    attack-spec@eps,eps,... | attack-spec@fgsm-grid|pgd-grid
//              "pgd:steps=7@0.1", "fgsm@fgsm-grid"
//   panels     arch-spec/dataset-spec
//              "vgg19/synth-c100", "vgg8:width=0.125,in=16/tiny:classes=10"
//
// A spec validates against all three registries up front (validate()),
// round-trips through to_args() (the canonical override list that rebuilds
// it from an empty spec — what rhw-sweep-v4 artifacts embed), and expands
// into a SweepGrid by the rhw_run driver (exp/experiment_registry.hpp).
// Named presets for every figure/table/example live in exp::ExperimentRegistry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spec.hpp"

namespace rhw::exp {

// One hardware arm: hw registry spec, optional defense registry spec,
// optional request for the experiment's calibration set at prepare() time.
struct ExperimentBackend {
  std::string key;      // referenced by mode pairings; unique per spec
  std::string hw;       // hw::BackendRegistry spec
  std::string defense;  // defenses::DefenseRegistry spec; "" = none
  bool calibrate = false;

  std::string to_item() const;  // "key=hw+defense@calib" canonical item
  bool operator==(const ExperimentBackend&) const = default;
};

// One attack-mode pairing over backend keys (grad == eval is white-box).
struct ExperimentMode {
  std::string label;
  std::string grad;
  std::string eval;

  std::string to_item() const;  // "label=grad/eval"
  bool operator==(const ExperimentMode&) const = default;
};

// One attack arm: attacks::AttackRegistry spec plus its epsilon axis.
struct ExperimentAttack {
  std::string spec;
  std::vector<float> epsilons;

  std::string to_item() const;  // "spec@eps,eps,..." (round-trip exact)
  bool operator==(const ExperimentAttack&) const = default;
};

// One (model, dataset) panel. Multi-panel experiments (fig5's four
// arch x dataset grids) run the same declared grid once per panel.
struct ExperimentPanel {
  std::string arch;     // "vgg8" | "vgg8:width=<f>,in=<n>" | ...
  std::string dataset;  // "synth-c10" | "synth-c100" | "tiny:classes=..,.."

  std::string to_item() const;  // "arch/dataset"
  bool operator==(const ExperimentPanel&) const = default;
};

struct ExperimentSpec {
  std::string name;      // registry key ("fig5"); "custom" when hand-built
  std::string tag;       // artifact stem: BENCH_<tag>[_<panel>].json
  std::string title;     // banner headline
  std::string subtitle;  // banner body

  std::vector<ExperimentPanel> panels;
  std::string train = "zoo";  // "zoo" | "quick[:epochs=,batch=]" | "none"
  // core::EngineRegistry spec every kernel of the run dispatches through
  // ("naive" | "simd:mr=,nr=,threads="). "" defers to the active engine
  // (simd unless the caller selected another); the driver resolves it to
  // that engine's canonical spec before stamping, so artifacts always
  // record the engine.
  std::string engine;
  int64_t eval_count = 256;   // test-head size through exp::eval_count; 0 = all
  std::vector<ExperimentBackend> backends;
  std::vector<ExperimentMode> modes;
  std::vector<ExperimentAttack> attacks;
  int trials = 1;
  uint64_t seed = 0xADE5;  // attacks::kDefaultEvalSeed
  int64_t batch = 100;
  bool verify = false;  // always re-run serially and require cell parity
  std::string out;      // artifact path override; "" = BENCH_<tag>.json

  // Serving mode (serve=1): the spec drives serve::Server + serve::LoadGen
  // instead of the sweep engine — each backend arm serves `requests` Poisson
  // arrivals at every offered rate on the `qps` axis, micro-batched under
  // (batch_max, linger_us), and the run emits an rhw-serve-v1 latency curve
  // (docs/SERVING.md). modes/attacks are not required in serving mode.
  bool serve = false;
  std::vector<float> qps;     // offered-load axis, requests/second
  int64_t requests = 256;     // arrivals per (arm, qps) point
  int64_t batch_max = 16;     // micro-batch size cap
  int64_t linger_us = 2000;   // max queue wait of the oldest request
  int64_t lanes = 0;          // worker lanes; 0 = pool size + 1

  // Applies one "key=value" / "axis+=item" override token. Throws
  // std::invalid_argument naming the offending token (key, item, or value)
  // with the same shape as the registries' errors.
  void apply_override(const std::string& token);

  // The canonical override list that rebuilds this spec from an empty one —
  // rhw-sweep-v4 artifacts embed it, and it round-trips bit-exactly
  // (epsilons included).
  std::vector<std::string> to_args() const;

  // Full up-front validation: every hw/defense/attack spec through its live
  // registry, model/dataset/train section grammar, unique backend keys and
  // mode labels, mode pairings resolving to declared keys, non-empty axes.
  // Throws std::invalid_argument naming the offending token.
  void validate() const;
};

// -- item parsing (exposed for tests and the docs checker) --------------------
// Each throws std::invalid_argument naming the offending token.
ExperimentBackend parse_backend_item(const std::string& item);
ExperimentMode parse_mode_item(const std::string& item);
ExperimentAttack parse_attack_item(const std::string& item);
ExperimentPanel parse_panel_item(const std::string& item);

// Round-trip-exact float text ("%.9g") used by ExperimentAttack::to_item.
std::string float_token(float v);

// Parsed model/dataset/train sections (core/spec grammar).
struct ArchSection {
  std::string arch;  // vgg8 | vgg16 | vgg19 | resnet18
  float width_mult = 0.25f;
  int64_t in_size = 32;
};
struct DatasetSection {
  // Any data::DatasetRegistry spec, optionally wrapped with the corruption
  // grammar "<base>+corrupt:kind=...,sev=..." (docs/DATASETS.md).
  std::string key;        // base registry key (synth-c10 | tiny | cifar10 | ...)
  std::string tag;        // cache/display name ("synth-c10", "tiny-c10+fog3")
  std::string zoo_tag;    // base tag ignoring corruption — train=zoo cache key
  std::string canonical;  // canonical spec, stamped into artifacts/banner
};
struct TrainSection {
  std::string key;  // zoo | quick | none
  int epochs = 4;
  int64_t batch = 50;
};
ArchSection parse_arch_section(const std::string& spec);
DatasetSection parse_dataset_section(const std::string& spec);
TrainSection parse_train_section(const std::string& spec);

}  // namespace rhw::exp
