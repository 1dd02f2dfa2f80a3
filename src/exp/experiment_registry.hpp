// ExperimentRegistry + the rhw_run driver: every figure, table and example
// of the reproduction as a named, overridable ExperimentSpec preset.
//
//   rhw_run fig8bc trials=5 backends+=xbar:rmin=1e5+smooth:sigma=0.25
//   rhw_run --list
//
// resolves a preset, applies "key=value" / "axis+=item" overrides with the
// registries' token-naming error contract, expands the spec into an
// exp::SweepGrid per panel, executes it on exp::SweepEngine, and emits the
// same table / ASCII-plot / BENCH_*.json artifacts the per-figure bench
// binaries used to produce — which are now thin wrappers over
// rhw_run_main(). The rhw-sweep-v4 artifact embeds the experiment spec, so
// every result file records the exact command that reproduces it.
//
// Presets keep their bench-specific presentation (paper-style tables, shape
// checks, the Fig. 4 methodology setup) in an ExperimentProgram — hooks
// around the declarative pipeline, never grid assembly: the grid always
// comes from the ExperimentSpec.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/synth_cifar.hpp"
#include "exp/experiment.hpp"
#include "exp/sweep.hpp"
#include "models/zoo.hpp"

namespace rhw::exp {

// Everything one panel's run exposes to preset hooks.
struct PanelContext {
  const ExperimentSpec* spec = nullptr;
  size_t index = 0;        // panel index in spec->panels
  ArchSection arch;        // parsed sections
  DatasetSection dataset;
  std::string tag;         // artifact tag (spec tag + panel suffix)
  data::SynthCifar data;   // train + test
  models::Model model;     // trained per the spec's train section
  data::Dataset eval_set;  // evaluation subset
  SweepGrid grid;          // the expanded grid (filled before run)
  SweepEngine* engine = nullptr;      // valid in report()
  const SweepResult* result = nullptr;  // valid in report()
};

struct RunContext {
  const ExperimentSpec* spec = nullptr;
  std::vector<std::string> overrides;  // user-supplied tokens
};

// Per-preset presentation/setup hooks. One instance lives for the whole run,
// so cross-panel state (fig5's combined table) sits in members. The default
// report() prints a generic mode x attack x eps table plus an AL(eps) ASCII
// plot per attack — enough for most presets; programs override to add the
// paper-specific tables, map reports, and shape-check text.
class ExperimentProgram {
 public:
  virtual ~ExperimentProgram() = default;

  // Before the panel's grid is built: register runtime backend keys (the
  // Fig. 4 methodology's "sram_selected"), print preamble.
  virtual void setup(PanelContext&) {}

  // After the panel's sweep. Default: generic table + plots.
  virtual void report(PanelContext& panel);

  // After every panel ran (combined tables, shape checks).
  virtual void finish(RunContext&) {}
};

using ExperimentFactory = std::function<ExperimentSpec()>;
using ProgramFactory = std::function<std::unique_ptr<ExperimentProgram>()>;

class ExperimentRegistry {
 public:
  // Process-wide registry, built-ins registered on first use.
  static ExperimentRegistry& instance();

  // Registers (or replaces) a preset. `program` may be null — the default
  // ExperimentProgram then renders the run.
  void add(const std::string& key, ExperimentFactory factory,
           ProgramFactory program = nullptr);
  bool contains(const std::string& key) const;
  std::vector<std::string> keys() const;

  // Resolves a preset to its spec. Throws std::invalid_argument on an
  // unknown key, naming it and listing the registered presets — the same
  // error contract as the five spec-keyed registries (core/registry.hpp).
  ExperimentSpec preset(const std::string& key) const;
  std::unique_ptr<ExperimentProgram> program(const std::string& key) const;

 private:
  ExperimentRegistry();

  struct Entry {
    ExperimentFactory factory;
    ProgramFactory program;
  };
  std::map<std::string, Entry> factories_;
};

// Defined in experiment_presets.cpp; called once from the registry ctor.
void register_builtin_experiments(ExperimentRegistry& registry);

// Driver-level run flags — rhw_run's `--shard=i/n`, `--resume` and
// `--dry-run`. These are execution knobs, not experiment identity: they
// never enter the spec's canonical args (the same experiment sharded three
// ways is still the same experiment), and the artifact records them in the
// stamp's shard block instead.
struct RunOptions {
  // Deterministic partition over the canonical cell enumeration: run only
  // cells with index % shard_count == shard_index. The artifact lands at
  // <out-stem>_shard<i>of<n>.json, ready for rhw_merge.
  size_t shard_index = 0;
  size_t shard_count = 1;
  // Resume from the <out>.partial/journal.jsonl checkpoint of an
  // interrupted run with the same canonical spec, shard and panel.
  bool resume = false;
  // Print the expanded cell listing (the exact enumeration sharding
  // partitions) instead of running anything.
  bool dry_run = false;
  // Test-only crash injection: complete at most N sweep tasks, then throw
  // SweepInterrupted. 0 defers to $RHW_SWEEP_CELL_BUDGET (same semantics).
  size_t max_cells = 0;
};

// Parses one "--..." CLI token into `opts`. Returns false when the token is
// not a recognized run flag; throws std::invalid_argument naming the token
// on a malformed value ("--shard=3/2"). Shared with docs_check so cookbook
// commands carrying flags stay validated.
bool parse_run_flag(const std::string& token, RunOptions& opts);

// The --dry-run listing: one "cell <index> ..." line per expanded grid cell
// in canonical enumeration order, with the owning shard annotated when
// shard_count > 1 — byte-stable for a given spec (golden-tested). Throws on
// serve specs (no cell grid) and out-of-range shards.
std::string dry_run_listing(const ExperimentSpec& spec, size_t shard_index = 0,
                            size_t shard_count = 1);

// Resolves `preset`, applies `overrides` in order, validates, runs every
// panel through SweepEngine, writes the v4 artifacts and renders the
// program. Lane count comes from $RHW_SWEEP_THREADS (default: one per
// hardware thread); spec.verify (verify=1) re-runs each grid serially and
// fails on any cell mismatch. Throws on invalid input; returns the per-panel
// results.
//
// With RunOptions: sharded runs write per-shard artifacts and skip the
// preset's report/finish hooks (the grid is partial — rhw_merge first);
// every sweep run journals into <out>.partial/ and deletes it only after
// its artifact is written, so a killed run resumes with --resume.
std::vector<SweepResult> run_experiment(
    const std::string& preset, const std::vector<std::string>& overrides = {});
std::vector<SweepResult> run_experiment(const std::string& preset,
                                        const std::vector<std::string>& overrides,
                                        const RunOptions& run);

// The CLI: rhw_run [--list|--help] [--shard=i/n] [--resume] [--dry-run]
// <preset> [overrides...]. Returns a process exit code; catches exceptions
// and reports them on stderr.
int rhw_run_main(const std::vector<std::string>& args);

}  // namespace rhw::exp
