#include "exp/experiment_registry.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "core/engine_registry.hpp"
#include "data/registry.hpp"
#include "exp/ascii_plot.hpp"
#include "exp/table_printer.hpp"
#include "serve/serve_experiment.hpp"

namespace rhw::exp {

// -- registry -----------------------------------------------------------------

ExperimentRegistry::ExperimentRegistry() {
  register_builtin_experiments(*this);
}

ExperimentRegistry& ExperimentRegistry::instance() {
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::add(const std::string& key, ExperimentFactory factory,
                             ProgramFactory program) {
  factories_[key] = {std::move(factory), std::move(program)};
}

bool ExperimentRegistry::contains(const std::string& key) const {
  return factories_.count(key) > 0;
}

std::vector<std::string> ExperimentRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, entry] : factories_) out.push_back(key);
  return out;
}

ExperimentSpec ExperimentRegistry::preset(const std::string& key) const {
  const auto it = factories_.find(key);
  if (it == factories_.end()) {
    std::ostringstream os;
    os << "unknown experiment '" << key << "'; registered:";
    for (const auto& [name, entry] : factories_) os << ' ' << name;
    throw std::invalid_argument(os.str());
  }
  ExperimentSpec spec = it->second.factory();
  spec.name = key;
  if (spec.tag.empty()) spec.tag = key;
  return spec;
}

std::unique_ptr<ExperimentProgram> ExperimentRegistry::program(
    const std::string& key) const {
  const auto it = factories_.find(key);
  if (it != factories_.end() && it->second.program) {
    return it->second.program();
  }
  return std::make_unique<ExperimentProgram>();
}

// -- default rendering --------------------------------------------------------

void ExperimentProgram::report(PanelContext& panel) {
  const SweepResult& result = *panel.result;
  bool any_cert = false;
  for (const auto& agg : result.aggregates) {
    if (agg.cert.mean > 0.0) any_cert = true;
  }
  std::vector<std::string> headers{"attack", "mode", "eps",
                                   "clean",  "adv",  "AL"};
  if (any_cert) headers.push_back("cert L2");
  TablePrinter table(headers);
  for (size_t a = 0; a < result.attack_specs.size(); ++a) {
    for (size_t m = 0; m < result.mode_labels.size(); ++m) {
      for (const auto& agg : result.aggregates) {
        if (agg.mode != m || agg.attack != a) continue;
        std::vector<std::string> row{
            result.attack_names[a],  result.mode_labels[m],
            core::fmt(agg.epsilon, 3),     agg.clean.format(),
            agg.adv.format(),        agg.al.format()};
        if (any_cert) {
          row.push_back(agg.cert.mean > 0.0 ? agg.cert.format(3) : "-");
        }
        table.add_row(std::move(row));
      }
    }
  }
  table.print();
  table.write_csv(bench_out_dir() + "/" + panel.tag + ".csv");

  // AL(eps) panel per attack with a real epsilon axis.
  for (size_t a = 0; a < result.attack_specs.size(); ++a) {
    std::vector<Series> panel_series;
    for (size_t m = 0; m < result.mode_labels.size(); ++m) {
      Series series;
      series.label = result.mode_labels[m];
      for (const auto& agg : result.aggregates) {
        if (agg.mode != m || agg.attack != a) continue;
        series.x.push_back(agg.epsilon);
        series.y.push_back(agg.al.mean);
      }
      if (series.x.size() >= 2) panel_series.push_back(std::move(series));
    }
    if (panel_series.empty()) continue;
    PlotOptions opt;
    opt.title = result.attack_names[a] + " (AL vs eps)";
    opt.y_min = 0;
    opt.y_max = 100;
    std::printf("%s\n", render_ascii_plot(panel_series, opt).c_str());
  }
}

// -- driver -------------------------------------------------------------------

namespace {

std::string suffix_before_json(const std::string& path,
                               const std::string& suffix) {
  const size_t ext = path.rfind(".json");
  if (ext != std::string::npos && ext + 5 == path.size()) {
    return path.substr(0, ext) + suffix + ".json";
  }
  return path + suffix;
}

std::string artifact_path(const ExperimentSpec& spec,
                          const PanelContext& panel) {
  std::string path;
  if (spec.out.empty()) {
    path = "BENCH_" + panel.tag + ".json";
  } else if (spec.panels.size() == 1) {
    path = spec.out;
  } else {
    // Multi-panel run with an explicit output path: suffix before ".json".
    path = suffix_before_json(
        spec.out, "_" + panel.arch.arch + "_" + panel.dataset.tag);
  }
  return path;
}

// Sharded runs write per-shard artifacts next to the unsharded path:
// BENCH_foo.json -> BENCH_foo_shard1of3.json.
std::string shard_artifact_path(std::string path, const RunOptions& run) {
  if (run.shard_count <= 1) return path;
  return suffix_before_json(std::move(path),
                            "_shard" + std::to_string(run.shard_index) + "of" +
                                std::to_string(run.shard_count));
}

// The resume identity: canonical spec args + shard + panel tag. A journal
// written under a different header can never replay into this run.
std::string journal_header(const ExperimentSpec& spec, const RunOptions& run,
                           const std::string& panel_tag) {
  std::string header;
  for (const auto& token : spec.to_args()) {
    if (!header.empty()) header += ' ';
    header += token;
  }
  header += " | shard=" + std::to_string(run.shard_index) + "/" +
            std::to_string(run.shard_count);
  header += " | panel=" + panel_tag;
  return header;
}

PanelContext make_panel(const ExperimentSpec& spec, size_t index) {
  PanelContext pc;
  pc.spec = &spec;
  pc.index = index;
  pc.arch = parse_arch_section(spec.panels[index].arch);
  pc.dataset = parse_dataset_section(spec.panels[index].dataset);
  pc.tag = spec.tag;
  if (spec.panels.size() > 1) {
    pc.tag += "_" + pc.arch.arch + "_" + pc.dataset.tag;
  }
  // The sixth seam: any registered dataset spec (optionally wrapped with
  // +corrupt:...) resolves through data::DatasetRegistry; load_dataset
  // shares one deterministic in-memory copy per canonical spec.
  pc.data = data::load_dataset(spec.panels[index].dataset);
  const TrainSection tr = parse_train_section(spec.train);
  if (tr.key == "zoo") {
    // Cache by the base tag so corrupted variants (clean train split) share
    // the clean model — validate() restricts zoo to the paper datasets.
    models::TrainedModel trained =
        models::get_trained(pc.arch.arch, pc.dataset.zoo_tag, pc.data);
    pc.model = std::move(trained.model);
  } else {
    pc.model = models::build_model(pc.arch.arch, pc.data.train.num_classes,
                                   pc.arch.width_mult, pc.arch.in_size);
    if (tr.key == "quick") {
      models::TrainConfig tcfg;
      tcfg.epochs = tr.epochs;
      tcfg.batch_size = tr.batch;
      models::train_model(pc.model, pc.data, tcfg);
    }
    pc.model.net->set_training(false);
  }
  pc.eval_set = spec.eval_count == 0 ? pc.data.test
                                     : pc.data.test.head(spec.eval_count);
  return pc;
}

void build_grid(const ExperimentSpec& spec, PanelContext& pc) {
  SweepGrid& grid = pc.grid;
  grid.model = &pc.model;
  grid.width_mult = pc.arch.width_mult;
  grid.in_size = pc.arch.in_size;
  grid.eval_set = &pc.eval_set;
  grid.train_data = &pc.data;
  for (const auto& arm : spec.backends) {
    grid.backends.push_back(
        {arm.key, arm.hw, arm.defense,
         arm.calibrate ? &pc.data.test : nullptr});
  }
  for (const auto& mode : spec.modes) {
    grid.modes.push_back({mode.label, mode.grad, mode.eval});
  }
  for (const auto& attack : spec.attacks) {
    grid.attacks.push_back({attack.spec, attack.epsilons});
  }
  grid.trials = spec.trials;
  grid.base.batch_size = spec.batch;
  grid.base.seed = spec.seed;
}

// The engine's cross-lane determinism check: re-run serially, require
// bit-identical cells. Shared contract with tests/exp/test_sweep.cpp.
size_t count_cell_mismatches(const SweepResult& parallel,
                             const SweepResult& serial) {
  size_t mismatches = 0;
  for (size_t i = 0; i < parallel.cells.size(); ++i) {
    const auto& a = parallel.cells[i];
    const auto& b = serial.cells[i];
    if (a.seed != b.seed || a.clean_acc != b.clean_acc ||
        a.adv_acc != b.adv_acc || a.cert_radius != b.cert_radius) {
      ++mismatches;
      std::fprintf(stderr,
                   "[sweep-verify] MISMATCH cell %zu (mode %zu eps %.3f "
                   "trial %d): parallel %.10f/%.10f vs serial %.10f/%.10f\n",
                   i, a.mode, a.epsilon, a.trial, a.clean_acc, a.adv_acc,
                   b.clean_acc, b.adv_acc);
    }
  }
  return mismatches;
}

void verify_serial_parity(const SweepGrid& grid, const SweepResult& parallel,
                          const RunOptions& run) {
  // Same shard of the grid, one lane, no journal: the serial re-run must be
  // bit-identical even when the parallel run restored cells from a journal.
  SweepEngine::Options opt;
  opt.threads = 1;
  opt.shard_index = run.shard_index;
  opt.shard_count = run.shard_count;
  SweepEngine serial_engine(opt);
  const SweepResult serial = serial_engine.run(grid);
  const size_t mismatches = count_cell_mismatches(parallel, serial);
  if (mismatches > 0) {
    throw std::runtime_error("sweep verify FAILED: " +
                             std::to_string(mismatches) +
                             " mismatching cell(s) vs the serial run");
  }
  std::printf(
      "[sweep-verify] OK: %zu cells bit-identical on %u lane(s) vs serial; "
      "speedup %.2fx (serial %.2fs / parallel %.2fs)\n",
      parallel.cells.size(), parallel.lanes,
      parallel.wall_seconds > 0 ? serial.wall_seconds / parallel.wall_seconds
                                : 0.0,
      serial.wall_seconds, parallel.wall_seconds);
}

}  // namespace

bool parse_run_flag(const std::string& token, RunOptions& opts) {
  if (token == "--resume") {
    opts.resume = true;
    return true;
  }
  if (token == "--dry-run") {
    opts.dry_run = true;
    return true;
  }
  if (token.rfind("--shard=", 0) == 0) {
    const std::string value = token.substr(8);
    const size_t slash = value.find('/');
    uint64_t index = 0;
    uint64_t count = 0;
    bool ok = slash != std::string::npos && slash > 0 &&
              slash + 1 < value.size();
    if (ok) {
      for (size_t i = 0; ok && i < value.size(); ++i) {
        if (i == slash) continue;
        ok = value[i] >= '0' && value[i] <= '9';
      }
    }
    if (ok) {
      index = std::strtoull(value.substr(0, slash).c_str(), nullptr, 10);
      count = std::strtoull(value.substr(slash + 1).c_str(), nullptr, 10);
      ok = count > 0 && index < count;
    }
    if (!ok) {
      throw std::invalid_argument("flag '" + token +
                                  "': expected --shard=i/n with 0 <= i < n "
                                  "(e.g. --shard=0/3)");
    }
    opts.shard_index = static_cast<size_t>(index);
    opts.shard_count = static_cast<size_t>(count);
    return true;
  }
  return false;
}

std::string dry_run_listing(const ExperimentSpec& spec, size_t shard_index,
                            size_t shard_count) {
  if (spec.serve) {
    throw std::invalid_argument("experiment '" + spec.name +
                                "': serve=1 runs have no cell grid to list");
  }
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::invalid_argument(
        "shard " + std::to_string(shard_index) + "/" +
        std::to_string(shard_count) + ": shard index must be < shard count");
  }
  std::vector<size_t> eps_counts;
  eps_counts.reserve(spec.attacks.size());
  for (const auto& attack : spec.attacks) {
    eps_counts.push_back(attack.epsilons.size());
  }
  const std::vector<CellCoord> coords =
      enumerate_cells(spec.modes.size(), eps_counts, spec.trials);
  size_t owned = 0;
  for (const auto& c : coords) {
    if (c.index % shard_count == shard_index) ++owned;
  }
  std::ostringstream os;
  os << "# preset " << spec.name << ": " << spec.panels.size()
     << " panel(s), " << spec.modes.size() << " mode(s), "
     << spec.attacks.size() << " attack(s), " << spec.trials << " trial(s)\n";
  for (size_t p = 0; p < spec.panels.size(); ++p) {
    os << "# panel " << p << ": " << spec.panels[p].arch << " / "
       << spec.panels[p].dataset << "\n";
  }
  os << "# cells: " << coords.size() << " per panel";
  if (shard_count > 1) {
    os << ", shard " << shard_index << "/" << shard_count << " owns " << owned;
  }
  os << "\n";
  for (const auto& c : coords) {
    os << "cell " << c.index << " trial=" << c.trial << " mode="
       << spec.modes[c.mode].label << " attack=" << spec.attacks[c.attack].spec
       << " eps=" << float_token(spec.attacks[c.attack].epsilons[c.eps_index])
       << " seed="
       << sweep_cell_seed(spec.seed, c.mode, c.attack, c.eps_index, c.trial);
    if (shard_count > 1) {
      os << " shard=" << c.index % shard_count;
      if (c.index % shard_count == shard_index) os << " *";
    }
    os << "\n";
  }
  return os.str();
}

std::vector<SweepResult> run_experiment(
    const std::string& preset, const std::vector<std::string>& overrides) {
  return run_experiment(preset, overrides, RunOptions{});
}

std::vector<SweepResult> run_experiment(
    const std::string& preset, const std::vector<std::string>& overrides,
    const RunOptions& run) {
  ExperimentRegistry& registry = ExperimentRegistry::instance();
  ExperimentSpec spec = registry.preset(preset);
  for (const auto& token : overrides) spec.apply_override(token);
  if (run.shard_count == 0 || run.shard_index >= run.shard_count) {
    throw std::invalid_argument(
        "shard " + std::to_string(run.shard_index) + "/" +
        std::to_string(run.shard_count) + ": shard index must be < shard count");
  }

  // Dry run: print the canonical cell enumeration (the exact ordering
  // --shard partitions) without touching the engine, training, or the
  // filesystem. Deliberately engine- and env-independent so the listing is
  // golden-testable.
  if (run.dry_run) {
    spec.validate();
    std::fputs(dry_run_listing(spec, run.shard_index, run.shard_count).c_str(),
               stdout);
    return {};
  }

  // Resolve the compute engine before any panel work (training included):
  // the explicit engine= knob, else the active engine (simd unless the
  // caller selected another). The scope pins it for the whole run and
  // restores the prior selection afterwards; spec.engine becomes the active
  // engine's canonical spec so the artifact's canonical args record the
  // actual kernel used.
  if (spec.engine.empty()) spec.engine = core::active_engine().spec();
  core::EngineScope engine_scope(spec.engine);
  spec.engine = core::active_engine().spec();
  spec.validate();
  if (spec.serve && (run.shard_count > 1 || run.resume)) {
    throw std::invalid_argument("experiment '" + spec.name +
                                "': serve=1 runs have no cell grid to shard "
                                "or resume");
  }

  ExperimentStamp stamp;
  stamp.preset = preset;
  stamp.overrides = overrides;
  stamp.canonical = spec.to_args();
  stamp.shard_index = run.shard_index;
  stamp.shard_count = run.shard_count;

  std::printf("\n=== %s ===\n%s\n[engine] %s\n",
              spec.title.empty() ? spec.name.c_str() : spec.title.c_str(),
              spec.subtitle.c_str(), spec.engine.c_str());
  if (run.shard_count > 1) {
    std::printf("[shard] %zu/%zu%s\n", run.shard_index, run.shard_count,
                run.resume ? " (resume)" : "");
  } else if (run.resume) {
    std::printf("[resume] replaying completed cells from the journal\n");
  }
  std::printf("\n");
  std::fflush(stdout);

  const std::unique_ptr<ExperimentProgram> program = registry.program(preset);
  RunContext rc;
  rc.spec = &spec;
  rc.overrides = overrides;

  std::vector<SweepResult> results;
  for (size_t p = 0; p < spec.panels.size(); ++p) {
    PanelContext pc = make_panel(spec, p);
    if (spec.panels.size() > 1) {
      std::printf("--- panel %zu/%zu: %s on %s ---\n", p + 1,
                  spec.panels.size(), pc.arch.arch.c_str(),
                  pc.dataset.tag.c_str());
    }
    std::printf("[dataset] %s\n", pc.dataset.canonical.c_str());
    // Panel-resolved stamp: the canonical dataset spec rides in the
    // artifact's experiment block (dropped by the payload view, so results
    // stay byte-comparable across runs).
    ExperimentStamp panel_stamp = stamp;
    panel_stamp.dataset = pc.dataset.canonical;
    program->setup(pc);

    // Serving mode: the spec drives serve::Server + serve::LoadGen instead
    // of the sweep engine — a latency-vs-offered-load curve per arm, written
    // as an rhw-serve-v1 artifact. The returned SweepResult carries only the
    // stamp (there are no sweep cells to aggregate).
    if (spec.serve) {
      serve::run_serve_panel(spec, pc, panel_stamp, artifact_path(spec, pc));
      SweepResult result;
      result.experiment = panel_stamp;
      results.push_back(std::move(result));
      continue;
    }

    build_grid(spec, pc);

    const std::string out_path = shard_artifact_path(artifact_path(spec, pc), run);
    SweepEngine::Options opt;
    opt.threads = sweep_threads_env(0);
    opt.shard_index = run.shard_index;
    opt.shard_count = run.shard_count;
    opt.resume = run.resume;
    opt.journal_path = out_path + ".partial/journal.jsonl";
    opt.journal_header = journal_header(spec, run, pc.tag);
    SweepEngine engine(opt);
    SweepResult result = engine.run(pc.grid);
    result.experiment = panel_stamp;
    std::printf("[sweep] %zu cells (%d trial(s)) on %u lane(s) in %.2fs",
                result.cells.size(), result.trials, result.lanes,
                result.wall_seconds);
    if (result.resumed > 0) {
      std::printf(", %zu task(s) restored from the journal", result.resumed);
    }
    std::printf("\n");
    // Verify BEFORE publishing: a run that fails the cross-lane determinism
    // check must not leave an artifact behind for later steps to pick up.
    if (spec.verify) {
      verify_serial_parity(pc.grid, result, run);
    }
    result.write_json(out_path, pc.tag);
    // The artifact is on disk: the checkpoint has served its purpose.
    std::error_code ec;
    std::filesystem::remove_all(out_path + ".partial", ec);
    pc.engine = &engine;
    pc.result = &result;
    if (run.shard_count > 1) {
      // A shard's grid is partial — preset report/finish hooks assume the
      // full grid (tables, shape checks), so they run on the merged artifact
      // instead (rhw_merge).
      std::printf("[shard %zu/%zu] wrote %s (%zu of %zu cells); run "
                  "rhw_merge before reporting\n",
                  run.shard_index, run.shard_count, out_path.c_str(),
                  result.cells.size(), result.cells_total);
    } else {
      program->report(pc);
    }
    results.push_back(std::move(result));
  }
  if (run.shard_count <= 1) program->finish(rc);
  return results;
}

int rhw_run_main(const std::vector<std::string>& args) {
  ExperimentRegistry& registry = ExperimentRegistry::instance();
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    std::printf(
        "usage: rhw_run [--shard=i/n] [--resume] [--dry-run] <preset> "
        "[key=value|axis+=item ...]\n"
        "       rhw_run --list\n\n"
        "Runs a registered experiment preset through the sweep engine with\n"
        "declarative overrides (docs/EXPERIMENTS.md has the grammar and a\n"
        "cookbook). --shard=i/n runs the i-th of n deterministic partitions\n"
        "(merge the shard artifacts with rhw_merge); --resume continues an\n"
        "interrupted run from its <out>.partial/ journal; --dry-run prints\n"
        "the expanded cell listing instead of running. Presets:\n");
    for (const auto& key : registry.keys()) {
      std::printf("  %s\n", key.c_str());
    }
    return args.empty() ? 1 : 0;
  }
  if (args[0] == "--list") {
    // The CI smoke: every registered preset must still resolve AND validate
    // against the live hw/attack/defense registries.
    bool ok = true;
    for (const auto& key : registry.keys()) {
      try {
        const ExperimentSpec spec = registry.preset(key);
        spec.validate();
        std::printf("%-24s %zu panel(s), %zu arm(s), %zu mode(s), %zu "
                    "attack(s), trials=%d\n",
                    key.c_str(), spec.panels.size(), spec.backends.size(),
                    spec.modes.size(), spec.attacks.size(), spec.trials);
      } catch (const std::exception& e) {
        ok = false;
        std::fprintf(stderr, "%-24s INVALID: %s\n", key.c_str(), e.what());
      }
    }
    return ok ? 0 : 1;
  }
  try {
    RunOptions run;
    std::string preset;
    std::vector<std::string> overrides;
    for (const auto& token : args) {
      if (token.rfind("--", 0) == 0) {
        if (!parse_run_flag(token, run)) {
          std::fprintf(stderr, "rhw_run: unknown flag '%s' (try --help)\n",
                       token.c_str());
          return 1;
        }
      } else if (preset.empty()) {
        preset = token;
      } else {
        overrides.push_back(token);
      }
    }
    if (preset.empty()) {
      std::fprintf(stderr, "rhw_run: no preset named (try --list)\n");
      return 1;
    }
    (void)run_experiment(preset, overrides, run);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rhw_run: %s\n", e.what());
    return 1;
  }
}

}  // namespace rhw::exp
