#include "data/registry.hpp"

#include <cctype>
#include <map>
#include <mutex>
#include <stdexcept>

#include "data/corruptions.hpp"
#include "data/loaders.hpp"

namespace rhw::data {

namespace {

// Typed option extraction with leftover rejection, shared with the other
// five seams (core/spec.hpp). The "dataset" domain string keeps the error
// shape ("dataset option classes: bad number 'abc'").
core::OptionReader reader_for(const std::string& dataset,
                              const DatasetOptions& opts) {
  return core::OptionReader("dataset", dataset, opts);
}

// -- generator-backed providers ----------------------------------------------

class SynthProvider : public DatasetProvider {
 public:
  SynthProvider(std::string tag, SynthCifarConfig cfg)
      : tag_(std::move(tag)), cfg_(cfg) {}
  std::string tag() const override { return tag_; }
  SynthCifar load() const override { return make_synth_cifar(cfg_); }

 private:
  std::string tag_;
  SynthCifarConfig cfg_;
};

DatasetPtr make_synth_c10(const DatasetOptions& opts) {
  reader_for("synth-c10", opts).finish();  // the paper presets take no knobs
  return std::make_unique<SynthProvider>("synth-c10", synth_c10_config());
}

DatasetPtr make_synth_c100(const DatasetOptions& opts) {
  reader_for("synth-c100", opts).finish();
  return std::make_unique<SynthProvider>("synth-c100", synth_c100_config());
}

// Shared geometry knobs (tiny and synth_cifar expose the same four).
void read_geometry(core::OptionReader& reader, SynthCifarConfig& cfg) {
  cfg.num_classes = static_cast<int64_t>(
      reader.integer("classes", static_cast<uint64_t>(cfg.num_classes)));
  cfg.train_per_class = static_cast<int64_t>(
      reader.integer("train", static_cast<uint64_t>(cfg.train_per_class)));
  cfg.test_per_class = static_cast<int64_t>(
      reader.integer("test", static_cast<uint64_t>(cfg.test_per_class)));
  cfg.image_size = static_cast<int64_t>(
      reader.integer("size", static_cast<uint64_t>(cfg.image_size)));
}

void check_geometry(const std::string& key, const SynthCifarConfig& cfg) {
  if (cfg.num_classes < 2 || cfg.train_per_class < 1 ||
      cfg.test_per_class < 1 || cfg.image_size < 8) {
    throw std::invalid_argument("dataset " + key +
                                ": degenerate dataset configuration");
  }
}

DatasetPtr make_tiny(const DatasetOptions& opts) {
  auto reader = reader_for("tiny", opts);
  SynthCifarConfig cfg;
  cfg.num_classes = 10;
  cfg.train_per_class = 100;
  cfg.test_per_class = 25;
  cfg.image_size = 16;
  read_geometry(reader, cfg);
  reader.finish();
  check_geometry("tiny", cfg);
  return std::make_unique<SynthProvider>(
      "tiny-c" + std::to_string(cfg.num_classes), cfg);
}

// Today's generator with every knob exposed.
DatasetPtr make_synth_cifar_provider(const DatasetOptions& opts) {
  auto reader = reader_for("synth_cifar", opts);
  SynthCifarConfig cfg;
  read_geometry(reader, cfg);
  cfg.channels = static_cast<int64_t>(
      reader.integer("channels", static_cast<uint64_t>(cfg.channels)));
  cfg.coarse_grid = static_cast<int64_t>(
      reader.integer("grid", static_cast<uint64_t>(cfg.coarse_grid)));
  cfg.template_amp =
      static_cast<float>(reader.number("amp", cfg.template_amp));
  cfg.noise_std = static_cast<float>(reader.number("noise", cfg.noise_std));
  cfg.nuisance_amp =
      static_cast<float>(reader.number("nuisance", cfg.nuisance_amp));
  cfg.jitter = static_cast<int64_t>(
      reader.integer("jitter", static_cast<uint64_t>(cfg.jitter)));
  cfg.seed = reader.integer("seed", cfg.seed);
  reader.finish();
  check_geometry("synth_cifar", cfg);
  if (cfg.channels < 1 || cfg.coarse_grid < 2) {
    throw std::invalid_argument(
        "dataset synth_cifar: degenerate dataset configuration");
  }
  return std::make_unique<SynthProvider>(
      "synth_cifar-c" + std::to_string(cfg.num_classes), cfg);
}

// -- file-backed providers ----------------------------------------------------
// Construction only records the directory; load() opens and validates the
// files, so specs with dir= paths stay cheap to validate.

class Cifar10Provider : public DatasetProvider {
 public:
  explicit Cifar10Provider(std::string dir) : dir_(std::move(dir)) {}
  std::string tag() const override { return "cifar10"; }
  SynthCifar load() const override { return load_cifar10_dir(dir_); }

 private:
  std::string dir_;
};

class MnistProvider : public DatasetProvider {
 public:
  explicit MnistProvider(std::string dir) : dir_(std::move(dir)) {}
  std::string tag() const override { return "mnist"; }
  SynthCifar load() const override { return load_mnist_dir(dir_); }

 private:
  std::string dir_;
};

DatasetPtr make_cifar10(const DatasetOptions& opts) {
  auto reader = reader_for("cifar10", opts);
  const std::string dir = reader.text("dir", "data/cifar-10-batches-bin");
  reader.finish();
  return std::make_unique<Cifar10Provider>(dir);
}

DatasetPtr make_mnist(const DatasetOptions& opts) {
  auto reader = reader_for("mnist", opts);
  const std::string dir = reader.text("dir", "data/mnist");
  reader.finish();
  return std::make_unique<MnistProvider>(dir);
}

// -- corruption wrapper --------------------------------------------------------

class CorruptProvider : public DatasetProvider {
 public:
  CorruptProvider(DatasetPtr base, CorruptionConfig cfg)
      : base_(std::move(base)), cfg_(std::move(cfg)) {}
  std::string tag() const override {
    return base_->tag() + "+" + cfg_.kind + std::to_string(cfg_.severity);
  }
  SynthCifar load() const override {
    SynthCifar out = base_->load();
    // Only the test split is corrupted: the suite models distribution shift
    // at inference time (CIFAR-10-C style), so training data stays clean and
    // train=zoo models remain shareable with the clean variant.
    out.test = corrupt_dataset(out.test, cfg_);
    return out;
  }

 private:
  DatasetPtr base_;
  CorruptionConfig cfg_;
};

CorruptionConfig parse_corrupt_wrapper(const std::string& wrapper) {
  const core::ParsedSpec parsed = core::parse_spec("dataset", wrapper);
  if (parsed.key != "corrupt") {
    throw std::invalid_argument("unknown dataset wrapper '" + parsed.key +
                                "' (only '+corrupt:kind=...,sev=...')");
  }
  auto reader = reader_for("corrupt", parsed.options);
  CorruptionConfig cfg;
  cfg.kind = reader.text("kind", "");
  cfg.severity = static_cast<int>(
      reader.integer("sev", static_cast<uint64_t>(cfg.severity)));
  cfg.seed = reader.integer("seed", cfg.seed);
  reader.finish();
  if (cfg.kind.empty()) {
    throw std::invalid_argument(
        "dataset corrupt: missing kind= (gauss_noise|shot|blur|fog|contrast)");
  }
  // Validate kind/sev now — the wrapper must fail at spec time, not at load.
  (void)corrupt_dataset(Dataset{}, cfg);
  return cfg;
}

}  // namespace

DatasetRegistry::DatasetRegistry()
    : Registry("dataset", "dataset",
               {{"synth-c10", make_synth_c10},
                {"synth-c100", make_synth_c100},
                {"tiny", make_tiny},
                {"synth_cifar", make_synth_cifar_provider},
                {"cifar10", make_cifar10},
                {"mnist", make_mnist}}) {}

DatasetRegistry& DatasetRegistry::instance() {
  static DatasetRegistry registry;
  return registry;
}

DatasetPtr DatasetRegistry::create(const std::string& spec) const {
  const auto [base_spec, wrapper] = split_corrupt_spec(spec);
  const core::ParsedSpec parsed = core::parse_spec("dataset", base_spec);
  const Factory& factory = lookup(parsed.key);
  return labelled(spec, [&] {
    DatasetPtr provider = factory(parsed.options);
    if (!wrapper.empty()) {
      provider = std::make_unique<CorruptProvider>(
          std::move(provider), parse_corrupt_wrapper(wrapper));
    }
    return provider;
  });
}

DatasetPtr make_dataset_provider(const std::string& spec) {
  return DatasetRegistry::instance().create(spec);
}

const SynthCifar& load_dataset(const std::string& spec) {
  const DatasetPtr provider = make_dataset_provider(spec);
  const std::string key = canonical_dataset_spec(spec);
  // The cache is keyed by canonical spec, so spelling variants share one
  // deterministic in-memory copy. Guarded for the TSan lanes even though
  // panels load on the driver thread today.
  static std::mutex mu;
  static std::map<std::string, SynthCifar>& cache =
      *new std::map<std::string, SynthCifar>();  // leaked: process-lifetime
  const std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  return cache.emplace(key, provider->load()).first->second;
}

std::pair<std::string, std::string> split_corrupt_spec(
    const std::string& spec) {
  // Same rule as backend arms' hw+defense split: '+' starts a wrapper only
  // when followed by a lowercase letter or '_' (so 1e+5 stays numeric).
  for (size_t i = 0; i < spec.size(); ++i) {
    if (spec[i] != '+') continue;
    if (i + 1 < spec.size() &&
        (std::islower(static_cast<unsigned char>(spec[i + 1])) ||
         spec[i + 1] == '_')) {
      return {spec.substr(0, i), spec.substr(i + 1)};
    }
  }
  return {spec, std::string()};
}

std::string canonical_dataset_spec(const std::string& spec) {
  const auto [base_spec, wrapper] = split_corrupt_spec(spec);
  std::string out = core::canonical_spec("dataset", base_spec);
  if (!wrapper.empty()) {
    out += '+';
    out += core::canonical_spec("dataset", wrapper);
  }
  return out;
}

}  // namespace rhw::data
