#include "exp/experiment.hpp"

#include <cctype>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

#include "attacks/registry.hpp"
#include "core/engine_registry.hpp"
#include "data/registry.hpp"
#include "defenses/registry.hpp"
#include "exp/sweep.hpp"
#include "hw/registry.hpp"

namespace rhw::exp {

namespace {

constexpr const char* kCalibSuffix = "@calib";

[[noreturn]] void bad_item(const std::string& axis, const std::string& item,
                           const std::string& why) {
  throw std::invalid_argument("experiment " + axis + " item '" + item +
                              "': " + why);
}

// Single-scalar typed extraction with the registries' error shape
// ("experiment option trials: bad number '...'").
core::OptionReader scalar_reader(const std::string& key,
                                 const std::string& value) {
  core::SpecOptions opts;
  opts[key] = value;
  return core::OptionReader("experiment", key, std::move(opts));
}

std::string spec_key(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

std::vector<float> parse_epsilons(const std::string& axis,
                                  const std::string& item,
                                  const std::string& text) {
  if (text == "fgsm-grid") return fgsm_epsilons();
  if (text == "pgd-grid") return pgd_epsilons();
  std::vector<float> out;
  std::istringstream is(text);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (tok.empty()) continue;
    try {
      size_t used = 0;
      const float v = std::stof(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
      out.push_back(v);
    } catch (const std::exception&) {
      bad_item(axis, item,
               "bad epsilon '" + tok +
                   "' (expected a number, 'fgsm-grid' or 'pgd-grid')");
    }
  }
  if (out.empty()) bad_item(axis, item, "empty epsilon list after '@'");
  return out;
}

// The serve qps axis: a comma-separated list of positive offered rates
// ("qps=100,400,1600"), round-tripped through float_token like epsilons.
std::vector<float> parse_qps_list(const std::string& value) {
  std::vector<float> out;
  std::istringstream is(value);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    if (tok.empty()) continue;
    float v = 0.f;
    try {
      size_t used = 0;
      v = std::stof(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
    } catch (const std::exception&) {
      throw std::invalid_argument("experiment option qps: bad rate '" + tok +
                                  "' (expected a positive number)");
    }
    if (!(v > 0.f)) {
      throw std::invalid_argument("experiment option qps: rate '" + tok +
                                  "' must be > 0");
    }
    out.push_back(v);
  }
  if (out.empty()) {
    throw std::invalid_argument(
        "experiment option qps: expected a comma-separated list of positive "
        "rates (got '" + value + "')");
  }
  return out;
}

}  // namespace

std::string float_token(float v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(v));
  return buf;
}

// -- list items ---------------------------------------------------------------

ExperimentBackend parse_backend_item(const std::string& item) {
  if (item.empty()) bad_item("backends", item, "empty item");
  ExperimentBackend arm;
  std::string rest = item;
  // "@calib" suffix: hand the arm the experiment's calibration set.
  if (const size_t at = rest.find('@'); at != std::string::npos) {
    if (rest.substr(at) != kCalibSuffix) {
      bad_item("backends", item,
               "unknown suffix '" + rest.substr(at) + "' (only '@calib')");
    }
    arm.calibrate = true;
    rest = rest.substr(0, at);
  }
  // Explicit arm key: an '=' before the first ':' and '+' belongs to
  // "key=hw..."; any later '=' is a spec option.
  const size_t eq = rest.find('=');
  const size_t colon = rest.find(':');
  const size_t plus = rest.find('+');
  if (eq != std::string::npos && (colon == std::string::npos || eq < colon) &&
      (plus == std::string::npos || eq < plus)) {
    arm.key = rest.substr(0, eq);
    rest = rest.substr(eq + 1);
    if (arm.key.empty()) bad_item("backends", item, "empty arm key before '='");
  }
  // Split hw-spec from defense-spec at the first '+' that starts a key
  // (lowercase letter / underscore) — numeric '+' as in "rmin=1e+5" stays
  // part of the hw spec.
  size_t split = std::string::npos;
  for (size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] != '+') continue;
    if (i + 1 < rest.size() &&
        (std::islower(static_cast<unsigned char>(rest[i + 1])) ||
         rest[i + 1] == '_')) {
      split = i;
      break;
    }
  }
  if (split == std::string::npos) {
    arm.hw = rest;
  } else {
    arm.hw = rest.substr(0, split);
    arm.defense = rest.substr(split + 1);
    if (arm.defense.empty()) bad_item("backends", item, "empty defense spec after '+'");
  }
  if (arm.hw.empty()) bad_item("backends", item, "empty hardware spec");
  if (arm.key.empty()) {
    arm.key = spec_key(arm.hw);
    if (!arm.defense.empty()) arm.key += "+" + spec_key(arm.defense);
  }
  return arm;
}

std::string ExperimentBackend::to_item() const {
  std::string out = key + "=" + hw;
  if (!defense.empty()) out += "+" + defense;
  if (calibrate) out += kCalibSuffix;
  return out;
}

ExperimentMode parse_mode_item(const std::string& item) {
  const size_t eq = item.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
    bad_item("modes", item, "expected label=grad/eval or label=key");
  }
  ExperimentMode mode;
  mode.label = item.substr(0, eq);
  const std::string rest = item.substr(eq + 1);
  const size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    mode.grad = mode.eval = rest;  // white-box on one arm
  } else {
    mode.grad = rest.substr(0, slash);
    mode.eval = rest.substr(slash + 1);
  }
  if (mode.grad.empty() || mode.eval.empty()) {
    bad_item("modes", item, "empty backend key in pairing '" + rest + "'");
  }
  return mode;
}

std::string ExperimentMode::to_item() const {
  return label + "=" + grad + "/" + eval;
}

ExperimentAttack parse_attack_item(const std::string& item) {
  const size_t at = item.find('@');
  if (at == std::string::npos || at == 0) {
    bad_item("attacks", item,
             "expected attack-spec@eps,... (e.g. \"pgd:steps=7@0.1\")");
  }
  ExperimentAttack attack;
  attack.spec = item.substr(0, at);
  attack.epsilons = parse_epsilons("attacks", item, item.substr(at + 1));
  return attack;
}

std::string ExperimentAttack::to_item() const {
  std::string out = spec + "@";
  for (size_t i = 0; i < epsilons.size(); ++i) {
    if (i) out += ",";
    out += float_token(epsilons[i]);
  }
  return out;
}

ExperimentPanel parse_panel_item(const std::string& item) {
  const size_t slash = item.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= item.size()) {
    bad_item("panels", item,
             "expected arch-spec/dataset-spec (e.g. \"vgg19/synth-c10\")");
  }
  return {item.substr(0, slash), item.substr(slash + 1)};
}

std::string ExperimentPanel::to_item() const { return arch + "/" + dataset; }

// -- sections -----------------------------------------------------------------

ArchSection parse_arch_section(const std::string& spec) {
  const core::ParsedSpec parsed = core::parse_spec("model", spec);
  ArchSection out;
  out.arch = parsed.key;
  if (out.arch != "vgg8" && out.arch != "vgg16" && out.arch != "vgg19" &&
      out.arch != "resnet18") {
    throw std::invalid_argument(
        "model spec '" + spec + "': unknown architecture '" + out.arch +
        "' (known: vgg8 vgg16 vgg19 resnet18)");
  }
  core::OptionReader reader("model", out.arch, parsed.options);
  out.width_mult = static_cast<float>(reader.number("width", out.width_mult));
  out.in_size = static_cast<int64_t>(reader.integer(
      "in", static_cast<uint64_t>(out.in_size)));
  reader.finish();
  if (!(out.width_mult > 0.f)) {
    throw std::invalid_argument("model spec '" + spec +
                                "': option width must be > 0");
  }
  if (out.in_size < 8) {
    throw std::invalid_argument("model spec '" + spec +
                                "': option in must be >= 8");
  }
  return out;
}

DatasetSection parse_dataset_section(const std::string& spec) {
  DatasetSection out;
  // Resolve through the sixth seam: construction is cheap and
  // filesystem-free, so a typo'd key or knob fails here with the dataset
  // registry's token-naming error contract.
  const data::DatasetPtr provider = data::make_dataset_provider(spec);
  const auto [base_spec, wrapper] = data::split_corrupt_spec(spec);
  out.key = core::parse_spec("dataset", base_spec).key;
  out.tag = provider->tag();
  out.zoo_tag = wrapper.empty()
                    ? out.tag
                    : data::make_dataset_provider(base_spec)->tag();
  out.canonical = data::canonical_dataset_spec(spec);
  return out;
}

TrainSection parse_train_section(const std::string& spec) {
  const core::ParsedSpec parsed = core::parse_spec("train", spec);
  TrainSection out;
  out.key = parsed.key;
  core::OptionReader reader("train", out.key, parsed.options);
  if (out.key == "zoo" || out.key == "none") {
    reader.finish();
    return out;
  }
  if (out.key != "quick") {
    throw std::invalid_argument("train spec '" + spec + "': unknown mode '" +
                                out.key + "' (known: zoo quick none)");
  }
  out.epochs = static_cast<int>(
      reader.integer("epochs", static_cast<uint64_t>(out.epochs)));
  out.batch = static_cast<int64_t>(
      reader.integer("batch", static_cast<uint64_t>(out.batch)));
  reader.finish();
  if (out.epochs < 1 || out.batch < 1) {
    throw std::invalid_argument("train spec '" + spec +
                                "': epochs and batch must be >= 1");
  }
  return out;
}

// -- overrides ----------------------------------------------------------------

void ExperimentSpec::apply_override(const std::string& token) {
  const size_t plus_eq = token.find("+=");
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument(
        "experiment override '" + token +
        "': expected key=value or axis+=item (see docs/EXPERIMENTS.md)");
  }
  const bool append = plus_eq != std::string::npos && plus_eq + 1 == eq;
  const std::string key =
      append ? token.substr(0, plus_eq) : token.substr(0, eq);
  const std::string value = token.substr(eq + 1);

  auto apply_list = [&](auto& list, auto parse) {
    if (append) {
      list.push_back(parse(value));
      return;
    }
    list.clear();
    if (!value.empty()) list.push_back(parse(value));
  };

  if (key == "panels") {
    apply_list(panels, parse_panel_item);
  } else if (key == "backends") {
    apply_list(backends, parse_backend_item);
  } else if (key == "modes") {
    apply_list(modes, parse_mode_item);
  } else if (key == "attacks") {
    apply_list(attacks, parse_attack_item);
  } else if (append) {
    throw std::invalid_argument(
        "experiment override '" + token + "': '" + key +
        "' is not a list axis (lists: panels backends modes attacks)");
  } else if (key == "model") {
    (void)parse_arch_section(value);  // fail fast on a typo'd section
    if (panels.empty()) {
      throw std::invalid_argument("experiment override '" + token +
                                  "': no panels to set the model on "
                                  "(declare panels+=arch/dataset first)");
    }
    for (auto& panel : panels) panel.arch = value;
  } else if (key == "dataset") {
    (void)parse_dataset_section(value);
    if (panels.empty()) {
      throw std::invalid_argument("experiment override '" + token +
                                  "': no panels to set the dataset on "
                                  "(declare panels+=arch/dataset first)");
    }
    for (auto& panel : panels) panel.dataset = value;
  } else if (key == "train") {
    (void)parse_train_section(value);
    train = value;
  } else if (key == "engine") {
    // Fail fast through the live registry so a typo'd engine token reports
    // the same "engine spec '...': ..." error as the other seams; empty
    // resets to the default (the active engine, simd unless selected).
    if (!value.empty()) (void)core::make_engine(value);
    engine = value;
  } else if (key == "trials") {
    trials = static_cast<int>(scalar_reader(key, value).integer(key, 1));
    if (trials < 1) {
      throw std::invalid_argument("experiment option trials: must be >= 1");
    }
  } else if (key == "seed") {
    seed = scalar_reader(key, value).integer(key, seed);
  } else if (key == "batch") {
    batch = static_cast<int64_t>(scalar_reader(key, value).integer(key, 100));
    if (batch < 1) {
      throw std::invalid_argument("experiment option batch: must be >= 1");
    }
  } else if (key == "eval_count") {
    eval_count =
        static_cast<int64_t>(scalar_reader(key, value).integer(key, 0));
  } else if (key == "verify") {
    verify = scalar_reader(key, value).integer(key, 0) != 0;
  } else if (key == "out") {
    out = value;
  } else if (key == "serve") {
    serve = scalar_reader(key, value).integer(key, 0) != 0;
  } else if (key == "qps") {
    qps = parse_qps_list(value);
  } else if (key == "requests") {
    requests =
        static_cast<int64_t>(scalar_reader(key, value).integer(key, 256));
    if (requests < 1) {
      throw std::invalid_argument("experiment option requests: must be >= 1");
    }
  } else if (key == "batch_max") {
    batch_max =
        static_cast<int64_t>(scalar_reader(key, value).integer(key, 16));
    if (batch_max < 1) {
      throw std::invalid_argument("experiment option batch_max: must be >= 1");
    }
  } else if (key == "linger_us") {
    linger_us =
        static_cast<int64_t>(scalar_reader(key, value).integer(key, 2000));
  } else if (key == "lanes") {
    lanes = static_cast<int64_t>(scalar_reader(key, value).integer(key, 0));
  } else if (key == "tag") {
    if (value.empty()) {
      throw std::invalid_argument("experiment option tag: must be non-empty");
    }
    tag = value;
  } else {
    throw std::invalid_argument(
        "experiment override '" + token + "': unknown option '" + key +
        "' (known: panels model dataset train engine eval_count backends "
        "modes attacks trials seed batch verify out tag serve qps requests "
        "batch_max linger_us lanes)");
  }
}

std::vector<std::string> ExperimentSpec::to_args() const {
  std::vector<std::string> args;
  for (const auto& panel : panels) args.push_back("panels+=" + panel.to_item());
  args.push_back("train=" + train);
  if (!engine.empty()) args.push_back("engine=" + engine);
  args.push_back("eval_count=" + std::to_string(eval_count));
  args.push_back("trials=" + std::to_string(trials));
  args.push_back("seed=" + std::to_string(seed));
  args.push_back("batch=" + std::to_string(batch));
  if (verify) args.push_back("verify=1");
  if (serve) {
    args.push_back("serve=1");
    std::string axis;
    for (size_t i = 0; i < qps.size(); ++i) {
      if (i != 0) axis += ",";
      axis += float_token(qps[i]);
    }
    args.push_back("qps=" + axis);
    args.push_back("requests=" + std::to_string(requests));
    args.push_back("batch_max=" + std::to_string(batch_max));
    args.push_back("linger_us=" + std::to_string(linger_us));
    if (lanes > 0) args.push_back("lanes=" + std::to_string(lanes));
  }
  if (!tag.empty()) args.push_back("tag=" + tag);
  if (!out.empty()) args.push_back("out=" + out);
  for (const auto& arm : backends) args.push_back("backends+=" + arm.to_item());
  for (const auto& mode : modes) args.push_back("modes+=" + mode.to_item());
  for (const auto& attack : attacks) {
    args.push_back("attacks+=" + attack.to_item());
  }
  return args;
}

// -- validation ---------------------------------------------------------------

void ExperimentSpec::validate() const {
  const std::string who =
      "experiment '" + (name.empty() ? std::string("custom") : name) + "'";
  if (panels.empty()) {
    throw std::invalid_argument(who + ": no panels declared");
  }
  if (!engine.empty()) (void)core::make_engine(engine);
  const TrainSection tr = parse_train_section(train);
  for (const auto& panel : panels) {
    const ArchSection arch = parse_arch_section(panel.arch);
    const DatasetSection ds = parse_dataset_section(panel.dataset);
    if (tr.key == "zoo") {
      // The on-disk cache is keyed by arch + base dataset tag, so zoo serves
      // only datasets whose tag pins down the data: the paper synthetics and
      // the real loaders. Parameterized generators (tiny, synth_cifar) keep
      // geometry knobs the tag does not encode — a cache hit could silently
      // return a model trained on different data. Corrupted variants share
      // the clean model: corruptions touch the test split alone.
      if (ds.zoo_tag != "synth-c10" && ds.zoo_tag != "synth-c100" &&
          ds.zoo_tag != "cifar10" && ds.zoo_tag != "mnist") {
        throw std::invalid_argument(
            who + ": train=zoo caches by dataset tag; panel '" +
            panel.to_item() + "' needs train=quick or train=none");
      }
      if (arch.width_mult != 0.25f || arch.in_size != 32) {
        throw std::invalid_argument(
            who + ": train=zoo serves default-geometry models; panel '" +
            panel.to_item() + "' customizes width/in");
      }
    }
  }
  if (backends.empty()) {
    throw std::invalid_argument(who + ": no backend arms declared");
  }
  std::set<std::string> keys;
  for (const auto& arm : backends) {
    if (!keys.insert(arm.key).second) {
      throw std::invalid_argument(who + ": duplicate backend key '" + arm.key +
                                  "'");
    }
    // Construction without prepare() is cheap and surfaces the registries'
    // token-naming errors for typo'd specs.
    (void)hw::make_backend(arm.hw);
    if (!arm.defense.empty()) {
      const defenses::DefensePtr defense = defenses::make_defense(arm.defense);
      if (defense->needs_calibration() && !arm.calibrate) {
        throw std::invalid_argument(
            who + ": backend '" + arm.key + "' uses defense '" + arm.defense +
            "' which needs '@calib' on its arm");
      }
      // Training-time defenses (adv_train) stay legal under any train mode:
      // the driver always feeds SweepGrid::train_data from the panel's data.
    }
  }
  if (serve) {
    // Serving mode replaces the (mode x attack x eps) grid with a
    // (arm x offered-QPS) curve; modes/attacks may stay empty but anything
    // declared is still validated below.
    if (qps.empty()) {
      throw std::invalid_argument(
          who + ": serve=1 needs a non-empty qps axis (qps=100,400,...)");
    }
    for (const float rate : qps) {
      if (!(rate > 0.f)) {
        throw std::invalid_argument(who + ": qps rates must be > 0");
      }
    }
    if (requests < 1) {
      throw std::invalid_argument(who + ": requests must be >= 1");
    }
    if (batch_max < 1) {
      throw std::invalid_argument(who + ": batch_max must be >= 1");
    }
    if (linger_us < 0) {
      throw std::invalid_argument(who + ": linger_us must be >= 0");
    }
    if (lanes < 0) {
      throw std::invalid_argument(who + ": lanes must be >= 0");
    }
  } else if (modes.empty()) {
    throw std::invalid_argument(who + ": no attack modes declared");
  }
  std::set<std::string> labels;
  for (const auto& mode : modes) {
    if (!labels.insert(mode.label).second) {
      throw std::invalid_argument(who + ": duplicate mode label '" +
                                  mode.label + "'");
    }
    for (const std::string& ref : {mode.grad, mode.eval}) {
      if (keys.count(ref) == 0) {
        throw std::invalid_argument(who + ": mode '" + mode.label +
                                    "' references unknown backend '" + ref +
                                    "'");
      }
    }
  }
  if (attacks.empty() && !serve) {
    throw std::invalid_argument(who + ": no attack arms declared");
  }
  for (const auto& attack : attacks) {
    (void)attacks::make_attack(attack.spec);
    if (attack.epsilons.empty()) {
      throw std::invalid_argument(who + ": attack '" + attack.spec +
                                  "' has an empty epsilon axis");
    }
  }
  if (trials < 1) throw std::invalid_argument(who + ": trials must be >= 1");
  if (batch < 1) throw std::invalid_argument(who + ": batch must be >= 1");
  if (tag.empty()) throw std::invalid_argument(who + ": empty artifact tag");
}

}  // namespace rhw::exp
