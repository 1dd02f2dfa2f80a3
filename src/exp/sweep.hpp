// SweepEngine: the parallel scheduler behind the figure/table benches.
//
// The paper's results are grids — AL(eps) per attack mode (Attack-SW/SH/HH)
// per substrate per configuration (Figs. 5-8, Tables I-III). A SweepGrid
// declares those axes once: backend definitions (hw registry specs, each
// optionally hardened/wrapped by a DefenseRegistry spec), attack-mode
// pairings over them, attack arms (AttackRegistry specs) with epsilon lists,
// and a trial count for noisy substrates. The engine expands the grid into
// independent cells and runs them concurrently on a core::ThreadPool.
//
// Guarantees:
//   * Determinism: every cell evaluates under RNG streams derived
//     (splitmix64) purely from (grid seed, mode index, attack index, epsilon
//     index, trial) — results are bit-identical regardless of execution
//     order, lane count, or how many replicas were stamped out. Defense
//     wrappers honor the same contract: their noise streams pin through
//     nn::reseed_noise_streams like any hardware hook.
//   * Calibrate-once: each backend definition pays for data-driven
//     calibration exactly once — the prototype replica runs it (SRAM layer
//     selection is the expensive case) and later replicas reproduce its
//     prepared state bit-for-bit without the calibration data. Replicas are
//     built by defenses::prepare_arm, the one builder serve::Server's lanes
//     share, which also decides when defense hardening is cloned from the
//     prototype (adv_train) or re-run (quanos' hook install). Replica
//     prepare() itself still runs per lane (deterministic re-execution:
//     crossbar remap), a one-time per-lane cost amortized over all the cells
//     that lane runs. Modules cache forward state, so replicas — not literal
//     sharing — are what "read-only across cells" means at the module level.
//   * Trials: trials > 1 re-runs every cell under derived trial seeds;
//     aggregates carry mean ± 95% CI (exp/sweep_stats.hpp). Certifying
//     defense arms (smooth) additionally report a mean certified L2 radius
//     per trial, aggregated like clean accuracy.
//
// A single AL(eps) row is a one-mode grid; run it at one lane for a serial
// reference (SweepOptions::threads = 1).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/evaluate.hpp"
#include "defenses/registry.hpp"
#include "exp/sweep_stats.hpp"
#include "hw/registry.hpp"
#include "models/vgg.hpp"

namespace rhw::exp {

// One point of an AL(eps) series, in percent.
struct AlPoint {
  float epsilon = 0.f;
  double clean_acc = 0.0;
  double adv_acc = 0.0;
  double al = 0.0;  // clean - adv
};

struct AlCurve {
  std::string label;            // mode label, e.g. "Attack-SW", "SH", "HH"
  std::vector<AlPoint> points;  // one per epsilon
};

// The paper's epsilon grids.
std::vector<float> fgsm_epsilons();  // 0, 0.05 .. 0.3  (Figs. 5-8b)
std::vector<float> pgd_epsilons();   // 0, {2,4,8,16,32}/255 (Figs. 6-8c)

// How one hardware arm of the grid is constructed: a hw registry spec (with
// optional calibration data for data-driven prepare()), optionally hardened
// and/or wrapped by a defense registry spec. An empty defense means "none".
// There is no custom-binder escape hatch: an arm that cannot be said in spec
// strings belongs behind a registered key (hw::BackendRegistry::add /
// defenses::DefenseRegistry::add), where every bench can reuse it.
struct SweepBackendDef {
  std::string key;      // referenced by SweepMode::grad / SweepMode::eval
  std::string spec;     // hw registry spec (required)
  std::string defense;  // defense registry spec; "" = "none"
  const data::Dataset* calibration = nullptr;

  SweepBackendDef() = default;
  SweepBackendDef(std::string key_, std::string spec_,
                  std::string defense_ = "",
                  const data::Dataset* calibration_ = nullptr)
      : key(std::move(key_)),
        spec(std::move(spec_)),
        defense(std::move(defense_)),
        calibration(calibration_) {}
};

// One attack-mode pairing. The paper's modes are pairings of backend keys:
// Attack-SW = (ideal, ideal), SH = (ideal, hw), HH = (hw, hw). grad == eval
// routes both passes through a single replica, preserving the serial-path
// semantics where HH crafts and evaluates on one network instance.
struct SweepMode {
  std::string label;
  std::string grad;
  std::string eval;
};

// One attack arm: an AttackRegistry spec string ("fgsm", "pgd:steps=7",
// "eot_pgd:samples=8", "square:queries=200", ...) plus its epsilon axis. The
// cell's epsilon overrides any eps=... embedded in the spec. Specs are
// validated up front — run() throws before evaluating anything if one is
// unknown or malformed.
struct SweepAttack {
  std::string spec = "fgsm";
  std::vector<float> epsilons;  // eps == 0 rows report adv = clean, AL = 0
};

struct SweepGrid {
  const models::Model* model = nullptr;  // trained baseline; never mutated
  // Clone geometry (models::clone_model needs it for non-default builds).
  float width_mult = 0.25f;
  int64_t in_size = 32;
  const data::Dataset* eval_set = nullptr;
  // Training data for training-time defense arms (adv_train); run() throws
  // up front when such an arm is declared without it.
  const data::SynthCifar* train_data = nullptr;
  std::vector<SweepBackendDef> backends;
  std::vector<SweepMode> modes;
  std::vector<SweepAttack> attacks;
  int trials = 1;
  attacks::AdvEvalConfig base;  // seed + batch/PGD knobs; kind/epsilon unused
};

// One coordinate of the expanded grid, in the canonical enumeration order
// (trial-major, then mode, attack, epsilon — exactly the order run() stores
// cells in). `index` is the stable cell id sharding partitions on, --dry-run
// prints, and rhw_merge uses to prove a merge is complete and duplicate-free.
struct CellCoord {
  size_t index = 0;
  size_t mode = 0;
  size_t attack = 0;
  size_t eps_index = 0;
  int trial = 0;
};

// The canonical cell enumeration shared by SweepEngine::run, the --dry-run
// listing and rhw_merge's completeness check: for each trial, for each mode,
// for each attack, for each epsilon of that attack. `eps_counts[a]` is
// attack a's epsilon-axis length.
std::vector<CellCoord> enumerate_cells(size_t n_modes,
                                       const std::vector<size_t>& eps_counts,
                                       int trials);

// One evaluated (mode, attack, epsilon, trial) cell.
struct SweepCell {
  size_t index = 0;  // canonical enumeration index (enumerate_cells)
  size_t mode = 0;
  size_t attack = 0;
  size_t eps_index = 0;
  int trial = 0;
  float epsilon = 0.f;
  uint64_t seed = 0;  // derived evaluation seed (sweep_cell_seed)
  double clean_acc = 0.0;
  double adv_acc = 0.0;
  double al = 0.0;
  // Mean certified L2 radius of the eval arm's defense (randomized
  // smoothing); 0 for non-certifying arms. Epsilon- and attack-independent
  // like clean_acc: one value per (eval backend, trial), shared.
  double cert_radius = 0.0;
};

// (mode, attack, epsilon) aggregated across trials.
struct SweepAggregate {
  size_t mode = 0;
  size_t attack = 0;
  size_t eps_index = 0;
  float epsilon = 0.f;
  SweepStat clean, adv, al;
  SweepStat cert;  // certified radius across trials (all-zero stats when
                   // the eval arm does not certify)
};

// One backend arm as declared, plus its resolved defense display name —
// carried into the rhw-sweep-v3 JSON so artifacts are self-describing.
struct SweepBackendInfo {
  std::string key;
  std::string spec;
  std::string defense;       // normalized: "none" when the def left it empty
  std::string defense_name;  // display name ("None", "Smooth", ...)
};

// Provenance stamp for sweep artifacts: which experiment-registry preset
// produced this grid and the exact command that reproduces it. Set by the
// rhw_run driver (exp/experiment_registry.hpp) before write_json; hand-built
// grids leave it empty and the artifact carries "experiment": null.
struct ExperimentStamp {
  std::string preset;                  // ExperimentRegistry key
  std::vector<std::string> overrides;  // user-supplied override tokens
  std::vector<std::string> canonical;  // full canonical args (to_args())
  // Canonical dataset spec of the panel this artifact holds (the sixth
  // seam's resolved key+knobs, e.g. "synth-c10" or "cifar10:dir=...+
  // corrupt:kind=fog,sev=3"); empty for ad-hoc grids.
  std::string dataset;
  // Shard provenance: count > 1 marks a partial artifact holding only the
  // cells with index % count == this shard's index; merged_shards > 0 marks
  // an artifact rhw_merge fused from that many shard files.
  size_t shard_index = 0;
  size_t shard_count = 1;
  size_t merged_shards = 0;
  // "rhw_run <preset> <overrides...> [--shard=i/n]" — the reproducing
  // command line.
  std::string command() const;
  // The artifact's "experiment" value, shared by the rhw-sweep-v4 and
  // rhw-serve-v1 writers: null for an ad-hoc run (empty preset), else the
  // preset, command, overrides, canonical args, dataset and provenance.
  void write_json(JsonWriter& w) const;
};

struct SweepResult {
  std::vector<SweepCell> cells;  // trial-major, grid order — deterministic
  std::vector<SweepAggregate> aggregates;
  std::vector<std::string> mode_labels;
  std::vector<SweepMode> mode_defs;        // label + (grad, eval) pairing
  std::vector<SweepBackendInfo> backends;  // grid order, as declared
  std::vector<std::string> attack_specs;  // grid order, as declared
  std::vector<std::string> attack_names;  // display names ("FGSM", "Square")
  int trials = 1;
  uint64_t base_seed = 0;
  unsigned lanes = 1;
  double wall_seconds = 0.0;
  // Full-grid cell count (== cells.size() unsharded; larger on a shard).
  size_t cells_total = 0;
  // Tasks restored from a resume journal instead of re-evaluated. Run state,
  // never serialized: a resumed run's artifact is bit-identical to an
  // uninterrupted one.
  size_t resumed = 0;
  ExperimentStamp experiment;  // empty preset = ad-hoc grid

  const SweepAggregate* find(size_t mode, size_t attack,
                             size_t eps_index) const;
  // Trial-mean AL(eps) series for one (mode label, attack spec) row. The
  // attack spec is matched through the registry grammar, not verbatim:
  // "pgd:steps=7,", reordered knobs, or dropped empty items all resolve to
  // the same arm. A genuine miss throws std::invalid_argument naming the
  // offending spec/label and listing the grid's rows.
  AlCurve curve(const std::string& mode_label,
                const std::string& attack_spec) const;
  // Machine-readable artifact (the BENCH_fig*.json files CI uploads).
  void write_json(const std::string& path, const std::string& figure) const;
  // Stream form. payload_only drops the run metadata that legitimately
  // differs between equivalent runs (experiment block, lanes, wall_seconds):
  // what remains is the results payload two runs of the same spec must agree
  // on byte-for-byte — the shard-equivalence and resume tests compare it.
  void write_json(std::ostream& os, const std::string& figure,
                  bool payload_only = false) const;
};

// Aggregates across trials in canonical (mode, attack, eps_index) order with
// each group's trial values in ascending-trial order — a pure function of
// the cell *set*, independent of the order `cells` is stored in. The engine,
// rhw_merge and the resume path all aggregate through this, so a merged or
// resumed artifact reproduces the monolithic aggregates bit-for-bit.
std::vector<SweepAggregate> compute_aggregates(const SweepResult& result);

// -- seed derivation contract -------------------------------------------------
// A cell's evaluation seed depends only on grid coordinates, never on
// execution order (README "Reproducibility"):
//   trial_seed = derive_stream_seed(base_seed, trial)
//   s = derive_stream_seed(trial_seed, kSweepCellStream)
//   s = derive(s, mode); s = derive(s, attack); cell_seed = derive(s, eps_i)
// Clean accuracy is epsilon-independent and shared across modes:
//   clean_seed = derive_stream_seed(trial_seed, kSweepCleanStream)
// Certification (smooth arms) pins its own independent stream the same way:
//   cert_seed = derive_stream_seed(trial_seed, kSweepCertStream)
inline constexpr uint64_t kSweepCellStream = 0x5CE1;
inline constexpr uint64_t kSweepCleanStream = 0x5C1E;
inline constexpr uint64_t kSweepCertStream = 0x5CE7;

uint64_t sweep_cell_seed(uint64_t base_seed, size_t mode, size_t attack,
                         size_t eps_index, int trial);
uint64_t sweep_clean_seed(uint64_t base_seed, int trial);
uint64_t sweep_cert_seed(uint64_t base_seed, int trial);

struct SweepOptions {
  // Concurrent cell lanes. 0 = one per hardware thread;
  // 1 = serial (the reference path the parity tests compare against).
  unsigned threads = 0;
  bool verbose = false;  // per-cell completion lines on stderr
  // Deterministic partition: run only the cells whose canonical enumeration
  // index satisfies index % shard_count == shard_index (round-robin — every
  // shard samples every trial/mode band). shard_count == 1 is the full grid.
  size_t shard_index = 0;
  size_t shard_count = 1;
  // Crash-safe checkpoint journal (exp/journal.hpp). Empty = no journal.
  // Every completed task appends a line; with resume, an existing journal
  // whose header matches journal_header restores its tasks instead of
  // re-running them (SweepResult::resumed counts them).
  std::string journal_path;
  std::string journal_header;
  bool resume = false;
  // Test-only crash injection: complete at most this many tasks, then throw
  // SweepInterrupted (0 = unlimited). Journaled work survives for resume.
  size_t max_cells = 0;
};

// Thrown when SweepOptions::max_cells stops a run early. The journal holds
// everything completed so far; a resume run finishes the rest.
struct SweepInterrupted : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class SweepEngine {
 public:
  using Options = SweepOptions;

  explicit SweepEngine(Options opts = {});
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  // Expands and evaluates the grid. Throws std::invalid_argument on
  // malformed grids (missing model/eval set, duplicate or unknown backend
  // keys). Replica pools persist on the engine after run() returns so
  // callers can query backend() for energy/map reports.
  SweepResult run(const SweepGrid& grid);

  // Prototype replica's serving backend for a key of the last run (the
  // defense wrapper when the arm declares one, else the hardware backend
  // itself); null if unknown.
  hw::HardwareBackend* backend(const std::string& key) const;

  unsigned lanes() const { return lanes_; }

 private:
  struct Pool;

  Options opts_;
  unsigned lanes_ = 1;
  std::vector<std::unique_ptr<Pool>> pools_;
};

// Lane count used by the benches: $RHW_SWEEP_THREADS, or `fallback`
// (0 = one lane per hardware thread) when it is unset or empty. Throws
// std::invalid_argument unless the variable is a whole number in
// [1, kMaxSweepThreads] with nothing after it.
inline constexpr unsigned kMaxSweepThreads = 1024;
unsigned sweep_threads_env(unsigned fallback = 0);

}  // namespace rhw::exp
