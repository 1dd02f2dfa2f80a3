// String-keyed factory for datasets — the sixth seam.
//
// Every experiment panel names its data by config string instead of
// hand-wiring generator calls:
//
//   const data::SynthCifar& ds = data::load_dataset("cifar10:dir=data/cifar");
//
// Spec grammar: "<key>" or "<key>:<opt>=<value>,..." — the same core/spec
// grammar and token-naming error contract as the hardware / attack / defense /
// engine / experiment registries. Built-in keys and their options:
//
//   synth-c10    (no options) — the paper's CIFAR-10 stand-in
//   synth-c100   (no options) — the paper's CIFAR-100 stand-in
//   tiny         classes=<n> train=<n> test=<n> size=<px>
//                — the CI-sized generator preset
//   synth_cifar  classes=<n> train=<n> test=<n> size=<px> channels=<n>
//                grid=<n> amp=<f> noise=<f> nuisance=<f> jitter=<n>
//                seed=<u64> — today's generator with every knob exposed
//   cifar10      dir=<path> — real CIFAR-10 binary batches
//                (data_batch_*.bin / test_batch.bin, 3073-byte records)
//   mnist        dir=<path> — real MNIST idx files (train-images-idx3-ubyte
//                et al., magic/size checked)
//
// Any base spec composes with the corruption wrapper grammar
//
//   <base>+corrupt:kind=<k>,sev=<1..5>[,seed=<u64>]
//   kind = gauss_noise | shot | blur | fog | contrast
//
// which applies a procedural, seed-deterministic CIFAR-10-C-style corruption
// to the *test* split (the train split stays clean: corruptions model
// distribution shift at inference time). Same spec + seed ⇒ bitwise-equal
// tensors.
//
// Provider construction is cheap and filesystem-free — a typo'd key or knob
// fails at validation time with the seam's error contract; `load()` does the
// actual generation or file I/O. `load_dataset` adds a process-wide
// deterministic cache keyed by the canonical spec so repeated panels (and
// repeated presets in one process) share one in-memory copy.
//
// Unknown keys and unknown options throw std::invalid_argument. Downstream
// code can register additional datasets (DatasetRegistry::add) under new
// keys. docs/DATASETS.md documents every key, knob and the corruption
// grammar; parity between that doc and this registry is CI-enforced
// (tools/rhw_lint.cpp), like the other five seams.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/registry.hpp"
#include "data/synth_cifar.hpp"

namespace rhw::data {

// A named, loadable train/test pair. Construction validates the spec;
// load() produces the data (deterministically — same provider config,
// same bits).
class DatasetProvider {
 public:
  virtual ~DatasetProvider() = default;
  // Cache/display tag ("synth-c10", "tiny-c10", "cifar10"); the corruption
  // wrapper appends "+<kind><sev>".
  virtual std::string tag() const = 0;
  virtual SynthCifar load() const = 0;
};

using DatasetPtr = std::unique_ptr<DatasetProvider>;
using DatasetOptions = core::SpecOptions;

class DatasetRegistry : public core::Registry<DatasetPtr> {
 public:
  // Process-wide registry, built-ins registered on first use.
  static DatasetRegistry& instance();

  // Parses "<key>[:opt=v,...][+corrupt:...]" and invokes the factory
  // (wrapping it in the corruption provider when the spec asks for it).
  // Errors name the full spec, wrapper included.
  DatasetPtr create(const std::string& spec) const;

 private:
  DatasetRegistry();
};

// Shorthand for DatasetRegistry::instance().create(spec).
DatasetPtr make_dataset_provider(const std::string& spec);

// Loads through a process-wide cache keyed by canonical spec: the first call
// per spec generates/reads the data, later calls return the same in-memory
// copy. Deterministic — cache hit or miss, the bits are identical.
const SynthCifar& load_dataset(const std::string& spec);

// Splits "<base>+corrupt:..." at the wrapper seam. The separator is the
// first '+' followed by a lowercase letter or '_' — the same rule backend
// arms use to split hw from defense, so numeric '+' inside option values
// (e.g. seed=1e+5) never splits. Returns {spec, ""} when unwrapped.
std::pair<std::string, std::string> split_corrupt_spec(const std::string& spec);

// Canonical form: key + sorted options for base and wrapper alike, so
// differently-ordered spellings of one dataset share a cache entry and an
// artifact stamp.
std::string canonical_dataset_spec(const std::string& spec);

}  // namespace rhw::data
