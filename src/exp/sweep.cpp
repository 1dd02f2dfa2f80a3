#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "core/thread_pool.hpp"
#include "exp/journal.hpp"

namespace rhw::exp {

uint64_t sweep_cell_seed(uint64_t base_seed, size_t mode, size_t attack,
                         size_t eps_index, int trial) {
  uint64_t s = derive_stream_seed(base_seed, static_cast<uint64_t>(trial));
  s = derive_stream_seed(s, kSweepCellStream);
  s = derive_stream_seed(s, static_cast<uint64_t>(mode));
  s = derive_stream_seed(s, static_cast<uint64_t>(attack));
  return derive_stream_seed(s, static_cast<uint64_t>(eps_index));
}

uint64_t sweep_clean_seed(uint64_t base_seed, int trial) {
  const uint64_t trial_seed =
      derive_stream_seed(base_seed, static_cast<uint64_t>(trial));
  return derive_stream_seed(trial_seed, kSweepCleanStream);
}

uint64_t sweep_cert_seed(uint64_t base_seed, int trial) {
  const uint64_t trial_seed =
      derive_stream_seed(base_seed, static_cast<uint64_t>(trial));
  return derive_stream_seed(trial_seed, kSweepCertStream);
}

std::vector<float> fgsm_epsilons() {
  return {0.f, 0.05f, 0.1f, 0.15f, 0.2f, 0.25f, 0.3f};
}

std::vector<float> pgd_epsilons() {
  return {0.f, 2.f / 255.f, 4.f / 255.f, 8.f / 255.f, 16.f / 255.f,
          32.f / 255.f};
}

std::vector<CellCoord> enumerate_cells(size_t n_modes,
                                       const std::vector<size_t>& eps_counts,
                                       int trials) {
  std::vector<CellCoord> out;
  size_t index = 0;
  for (int t = 0; t < std::max(trials, 1); ++t) {
    for (size_t m = 0; m < n_modes; ++m) {
      for (size_t a = 0; a < eps_counts.size(); ++a) {
        for (size_t e = 0; e < eps_counts[a]; ++e) {
          out.push_back({index++, m, a, e, t});
        }
      }
    }
  }
  return out;
}

// -- replica pools ------------------------------------------------------------

struct SweepEngine::Pool {
  SweepBackendDef def;
  defenses::DefensePtr defense;  // parsed once in run(), shared by all lanes

  using Replica = defenses::PreparedArm;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<Replica>> all;  // all[0] is the prototype
  std::vector<Replica*> free_list;
  Replica* prototype = nullptr;
  bool prototype_building = false;

  // Replica construction runs OUTSIDE the pool lock so lanes stamp replicas
  // concurrently; only the prototype (which pays for calibration-driven
  // prepare and defense hardening) is built exclusively, with other lanes
  // waiting on it.
  Replica* checkout(const SweepGrid& grid) {
    std::unique_lock lock(mu);
    for (;;) {
      if (!free_list.empty()) {
        Replica* r = free_list.back();
        free_list.pop_back();
        return r;
      }
      if (prototype != nullptr || !prototype_building) break;
      cv.wait(lock);
    }
    const Replica* const source = prototype;  // null: build the prototype
    const bool is_prototype = source == nullptr;
    if (is_prototype) prototype_building = true;
    lock.unlock();

    std::unique_ptr<Replica> rep;
    try {
      defenses::DefenseContext dctx;
      dctx.train_data = grid.train_data;
      dctx.calibration = def.calibration;
      rep = std::make_unique<Replica>(defenses::prepare_arm(
          *grid.model, grid.width_mult, grid.in_size, def.spec, *defense, dctx,
          source));
    } catch (...) {
      if (is_prototype) {
        lock.lock();
        prototype_building = false;
        cv.notify_all();  // let a waiting lane take over prototype duty
      }
      throw;
    }

    lock.lock();
    all.push_back(std::move(rep));
    Replica* r = all.back().get();
    if (is_prototype) {
      prototype = r;
      prototype_building = false;
      cv.notify_all();
    }
    return r;
  }

  void checkin(Replica* r) {
    {
      std::lock_guard lock(mu);
      free_list.push_back(r);
    }
    cv.notify_one();
  }
};

SweepEngine::SweepEngine(Options opts) : opts_(opts) {}
SweepEngine::~SweepEngine() = default;

hw::HardwareBackend* SweepEngine::backend(const std::string& key) const {
  for (const auto& pool : pools_) {
    if (pool->def.key != key) continue;
    std::lock_guard lock(pool->mu);
    return pool->all.empty() ? nullptr : pool->all.front()->serving();
  }
  return nullptr;
}

unsigned sweep_threads_env(unsigned fallback) {
  // rhw-lint: allow(env) — lane count only; payloads are lane-invariant
  const char* env = std::getenv("RHW_SWEEP_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(*env)) == 0 || *end != '\0' ||
      errno == ERANGE || v < 1 ||
      v > static_cast<long>(kMaxSweepThreads)) {
    throw std::invalid_argument(
        "RHW_SWEEP_THREADS='" + std::string(env) +
        "': expected a whole lane count in [1, " +
        std::to_string(kMaxSweepThreads) + "]");
  }
  return static_cast<unsigned>(v);
}

SweepResult SweepEngine::run(const SweepGrid& grid) {
  if (grid.model == nullptr || grid.model->net == nullptr) {
    throw std::invalid_argument("SweepEngine: grid.model is required");
  }
  if (grid.eval_set == nullptr) {
    throw std::invalid_argument("SweepEngine: grid.eval_set is required");
  }

  // Rebuild replica pools (run() owns the pool lifetime so callers can query
  // backend() afterwards).
  pools_.clear();
  auto pool_index = [&](const std::string& key) -> size_t {
    for (size_t i = 0; i < pools_.size(); ++i) {
      if (pools_[i]->def.key == key) return i;
    }
    throw std::invalid_argument("SweepEngine: mode references unknown backend '" +
                                key + "'");
  };
  SweepResult result;
  for (const auto& def : grid.backends) {
    for (const auto& pool : pools_) {
      if (pool->def.key == def.key) {
        throw std::invalid_argument("SweepEngine: duplicate backend key '" +
                                    def.key + "'");
      }
    }
    if (def.spec.empty()) {
      throw std::invalid_argument("SweepEngine: backend '" + def.key +
                                  "' has an empty hardware spec");
    }
    auto pool = std::make_unique<Pool>();
    pool->def = def;
    // Validate both specs before evaluating anything — a typo'd spec must
    // fail the whole run with the registry's token-naming error, not abort
    // mid-grid from a worker lane. Construction without prepare() is cheap.
    (void)hw::make_backend(def.spec);
    const std::string defense_spec =
        def.defense.empty() ? std::string("none") : def.defense;
    pool->defense = defenses::make_defense(defense_spec);
    if (pool->defense->training_time() && grid.train_data == nullptr) {
      throw std::invalid_argument(
          "SweepEngine: backend '" + def.key + "' uses training-time defense '" +
          defense_spec + "' but grid.train_data is not set");
    }
    if (pool->defense->needs_calibration() && def.calibration == nullptr) {
      throw std::invalid_argument(
          "SweepEngine: backend '" + def.key + "' uses defense '" +
          defense_spec + "' which needs SweepBackendDef::calibration");
    }
    result.backends.push_back(
        {def.key, def.spec, defense_spec, pool->defense->name()});
    pools_.push_back(std::move(pool));
  }

  const int trials = grid.trials < 1 ? 1 : grid.trials;

  struct ModeIdx {
    size_t grad = 0, eval = 0;
  };
  std::vector<ModeIdx> mode_pools;
  mode_pools.reserve(grid.modes.size());
  for (const auto& mode : grid.modes) {
    mode_pools.push_back({pool_index(mode.grad), pool_index(mode.eval)});
  }

  for (const auto& mode : grid.modes) {
    result.mode_labels.push_back(mode.label);
    result.mode_defs.push_back(mode);
  }
  for (const auto& attack : grid.attacks) {
    // Validate every attack arm before evaluating anything: a typo'd spec
    // must fail the whole run with the registry's token-naming error, not
    // abort mid-grid from a worker lane.
    result.attack_specs.push_back(attack.spec);
    result.attack_names.push_back(attacks::attack_display_name(attack.spec));
  }
  result.trials = trials;
  result.base_seed = grid.base.seed;

  // Cell enumeration: the canonical trial-major order (enumerate_cells),
  // deterministic and independent of the execution schedule. Sharding keeps
  // the cells whose canonical index round-robins onto this shard — per-cell
  // seeds depend only on grid coordinates, so the union of any shard
  // partition is bit-identical to the monolithic run.
  const size_t shard_count = opts_.shard_count == 0 ? 1 : opts_.shard_count;
  if (opts_.shard_index >= shard_count) {
    throw std::invalid_argument(
        "SweepEngine: shard_index " + std::to_string(opts_.shard_index) +
        " out of range for shard_count " + std::to_string(shard_count));
  }
  std::vector<size_t> eps_counts;
  eps_counts.reserve(grid.attacks.size());
  for (const auto& attack : grid.attacks) {
    eps_counts.push_back(attack.epsilons.size());
  }
  const std::vector<CellCoord> coords =
      enumerate_cells(grid.modes.size(), eps_counts, trials);
  result.cells_total = coords.size();
  for (const CellCoord& c : coords) {
    if (c.index % shard_count != opts_.shard_index) continue;
    SweepCell cell;
    cell.index = c.index;
    cell.mode = c.mode;
    cell.attack = c.attack;
    cell.eps_index = c.eps_index;
    cell.trial = c.trial;
    cell.epsilon = grid.attacks[c.attack].epsilons[c.eps_index];
    cell.seed =
        sweep_cell_seed(grid.base.seed, c.mode, c.attack, c.eps_index, c.trial);
    result.cells.push_back(cell);
  }

  // Clean accuracy is epsilon- and mode-independent: one value per
  // (eval backend, trial), computed once and shared. Certified radius
  // (smooth arms) shares the same slots — it is a property of the eval
  // backend under its cert-stream seed, not of any attack cell. Marked from
  // the surviving cells (eps == 0 rows included: they copy the clean value),
  // so a shard only pays for the clean passes its own cells reference.
  std::vector<double> clean_vals(pools_.size() * static_cast<size_t>(trials),
                                 0.0);
  std::vector<double> cert_vals(clean_vals.size(), 0.0);
  std::vector<char> clean_needed(clean_vals.size(), 0);
  auto clean_slot = [&](size_t eval_pool, int trial) {
    return eval_pool * static_cast<size_t>(trials) +
           static_cast<size_t>(trial);
  };
  for (const SweepCell& cell : result.cells) {
    clean_needed[clean_slot(mode_pools[cell.mode].eval, cell.trial)] = 1;
  }

  // Task list: clean passes plus every eps > 0 adversarial cell.
  struct Task {
    bool clean = false;
    size_t pool = 0;  // clean: eval pool index
    int trial = 0;    // clean: trial
    size_t cell = 0;  // adv: index into result.cells
  };
  std::vector<Task> tasks;
  for (size_t p = 0; p < pools_.size(); ++p) {
    for (int t = 0; t < trials; ++t) {
      if (clean_needed[clean_slot(p, t)]) tasks.push_back({true, p, t, 0});
    }
  }
  for (size_t c = 0; c < result.cells.size(); ++c) {
    if (result.cells[c].epsilon != 0.f) tasks.push_back({false, 0, 0, c});
  }

  // Checkpoint/resume: restore journaled tasks instead of re-running them,
  // then (re)write the journal so this run's appends continue it. The
  // journal is rewritten from the parsed entries on resume, truncating any
  // torn tail a crashed append left behind.
  std::unique_ptr<SweepJournal> journal;
  if (!opts_.journal_path.empty()) {
    std::vector<JournalEntry> restored;
    if (opts_.resume) {
      restored = load_journal(opts_.journal_path, opts_.journal_header);
    }
    journal = std::make_unique<SweepJournal>(opts_.journal_path,
                                             opts_.journal_header,
                                             /*append=*/false);
    std::map<std::pair<std::string, int>, const JournalEntry*> done_clean;
    std::map<size_t, const JournalEntry*> done_cell;
    for (const JournalEntry& e : restored) {
      journal->record(e);
      if (e.clean) {
        done_clean[{e.pool, e.trial}] = &e;
      } else {
        done_cell[e.index] = &e;
      }
    }
    std::vector<Task> remaining;
    for (const Task& task : tasks) {
      if (task.clean) {
        const auto it =
            done_clean.find({pools_[task.pool]->def.key, task.trial});
        if (it != done_clean.end()) {
          clean_vals[clean_slot(task.pool, task.trial)] = it->second->clean_acc;
          cert_vals[clean_slot(task.pool, task.trial)] = it->second->cert;
          ++result.resumed;
          continue;
        }
      } else {
        const auto it = done_cell.find(result.cells[task.cell].index);
        if (it != done_cell.end()) {
          result.cells[task.cell].adv_acc = it->second->adv;
          ++result.resumed;
          continue;
        }
      }
      remaining.push_back(task);
    }
    tasks = std::move(remaining);
  }

  lanes_ = opts_.threads != 0
               ? opts_.threads
               : static_cast<unsigned>(global_pool().size()) + 1;
  result.lanes = lanes_;

  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<bool> abort{false};

  // Checks the replica back in even when evaluation throws, so other lanes
  // reuse it instead of stamping fresh clones during an aborting run. A null
  // pool checks nothing out (rep stays null).
  struct Checkout {
    Pool* pool = nullptr;
    Pool::Replica* rep = nullptr;
    Checkout(Pool* p, const SweepGrid& g)
        : pool(p), rep(p != nullptr ? p->checkout(g) : nullptr) {}
    ~Checkout() {
      if (pool != nullptr && rep != nullptr) pool->checkin(rep);
    }
    Checkout(const Checkout&) = delete;
    Checkout& operator=(const Checkout&) = delete;
  };

  auto run_task = [&](const Task& task) {
    if (task.clean) {
      Pool& pool = *pools_[task.pool];
      const Checkout rep(&pool, grid);
      const double acc = attacks::clean_accuracy(
          rep.rep->serving()->module(), *grid.eval_set, grid.base.batch_size,
          sweep_clean_seed(grid.base.seed, task.trial));
      clean_vals[clean_slot(task.pool, task.trial)] = acc;
      // Certifying defense arms (randomized smoothing) piggyback on the
      // clean task: one certificate per (eval backend, trial), under its own
      // derived stream.
      if (auto* cert =
              dynamic_cast<defenses::Certifier*>(rep.rep->serving())) {
        cert_vals[clean_slot(task.pool, task.trial)] =
            cert->mean_certified_radius(
                *grid.eval_set, grid.base.batch_size,
                sweep_cert_seed(grid.base.seed, task.trial));
      }
      if (journal) {
        JournalEntry e;
        e.clean = true;
        e.pool = pool.def.key;
        e.trial = task.trial;
        e.clean_acc = acc;
        e.cert = cert_vals[clean_slot(task.pool, task.trial)];
        journal->record(e);
      }
      if (opts_.verbose) {
        std::fprintf(stderr, "[sweep] clean %s trial %d: %.2f%%\n",
                     pool.def.key.c_str(), task.trial, acc);
      }
      return;
    }
    SweepCell& cell = result.cells[task.cell];
    const ModeIdx& mi = mode_pools[cell.mode];
    // grad == eval must run through ONE replica: HH crafts and evaluates on
    // the same network instance, exactly like the serial path.
    const Checkout grad_rep(pools_[mi.grad].get(), grid);
    const Checkout eval_rep(
        mi.grad == mi.eval ? nullptr : pools_[mi.eval].get(), grid);
    nn::Module& grad_net = grad_rep.rep->serving()->module();
    nn::Module& eval_net = eval_rep.rep != nullptr
                               ? eval_rep.rep->serving()->module()
                               : grad_net;
    attacks::AdvEvalConfig cfg = grid.base;
    cfg.attack = grid.attacks[cell.attack].spec;
    cfg.epsilon = cell.epsilon;
    cfg.seed = cell.seed;
    cell.adv_acc =
        attacks::adversarial_accuracy(grad_net, eval_net, *grid.eval_set, cfg);
    if (journal) {
      JournalEntry e;
      e.index = cell.index;
      e.adv = cell.adv_acc;
      journal->record(e);
    }
    if (opts_.verbose) {
      std::fprintf(stderr, "[sweep] %s %s eps=%.3f trial %d: adv %.2f%%\n",
                   result.mode_labels[cell.mode].c_str(),
                   result.attack_names[cell.attack].c_str(), cell.epsilon,
                   cell.trial, cell.adv_acc);
    }
  };

  // Test-only crash injection: each lane claims a budget slot before running
  // a task, so exactly min(max_cells, tasks) tasks complete — even in
  // parallel — before the run throws SweepInterrupted.
  std::atomic<size_t> budget_used{0};
  std::atomic<bool> interrupted{false};

  auto pump = [&](int64_t, int64_t) {
    for (size_t i; (i = next.fetch_add(1)) < tasks.size();) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (opts_.max_cells != 0 &&
          budget_used.fetch_add(1) >= opts_.max_cells) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      try {
        run_task(tasks[i]);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (lanes_ <= 1 || tasks.size() <= 1) {
    pump(0, 1);
  } else {
    // Own pool: cells run on its workers (whose nested parallel_for calls
    // fall back to serial — the parallelism budget moves to the cell level),
    // while the caller lane keeps the global pool for its own cells.
    // Sized to the lanes that get a task: the caller plus n_lanes - 1
    // workers.
    const auto n_lanes =
        std::min<int64_t>(static_cast<int64_t>(tasks.size()), lanes_);
    ThreadPool cell_pool(static_cast<unsigned>(n_lanes - 1));
    cell_pool.parallel_for(n_lanes, pump);
  }
  if (first_error) std::rethrow_exception(first_error);
  if (interrupted.load()) {
    throw SweepInterrupted(
        "sweep interrupted: max_cells budget of " +
        std::to_string(opts_.max_cells) + " task(s) spent with " +
        std::to_string(tasks.size() - std::min(tasks.size(), opts_.max_cells)) +
        " task(s) left; resume from " +
        (opts_.journal_path.empty() ? std::string("(no journal)")
                                    : opts_.journal_path));
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Assembly: attach the shared clean/cert values, resolve eps == 0 rows.
  for (SweepCell& cell : result.cells) {
    const ModeIdx& mi = mode_pools[cell.mode];
    cell.clean_acc = clean_vals[clean_slot(mi.eval, cell.trial)];
    cell.cert_radius = cert_vals[clean_slot(mi.eval, cell.trial)];
    if (cell.epsilon == 0.f) cell.adv_acc = cell.clean_acc;
    cell.al = cell.clean_acc - cell.adv_acc;
  }

  result.aggregates = compute_aggregates(result);
  return result;
}

std::vector<SweepAggregate> compute_aggregates(const SweepResult& result) {
  // Group by canonical (mode, attack, eps_index) key — the map iterates in
  // exactly the engine's historical mode-major emission order — and feed
  // each group's values to summarize() in ascending-trial order. The value
  // order is what makes the floating-point sums reproducible: cells stored
  // trial-major (a fresh run), index-sorted (a merge) or restored from a
  // journal all collapse to the same per-group sequence, so the aggregate
  // doubles are bit-identical however the cells were computed.
  std::map<std::tuple<size_t, size_t, size_t>, std::vector<const SweepCell*>>
      groups;
  for (const SweepCell& cell : result.cells) {
    groups[{cell.mode, cell.attack, cell.eps_index}].push_back(&cell);
  }
  std::vector<SweepAggregate> out;
  out.reserve(groups.size());
  for (auto& [key, members] : groups) {
    std::sort(members.begin(), members.end(),
              [](const SweepCell* a, const SweepCell* b) {
                return a->trial < b->trial;
              });
    SweepAggregate agg;
    agg.mode = std::get<0>(key);
    agg.attack = std::get<1>(key);
    agg.eps_index = std::get<2>(key);
    agg.epsilon = members.front()->epsilon;
    std::vector<double> clean, adv, al, cert;
    for (const SweepCell* cell : members) {
      clean.push_back(cell->clean_acc);
      adv.push_back(cell->adv_acc);
      al.push_back(cell->al);
      cert.push_back(cell->cert_radius);
    }
    agg.clean = summarize(clean);
    agg.adv = summarize(adv);
    agg.al = summarize(al);
    agg.cert = summarize(cert);
    out.push_back(agg);
  }
  return out;
}

const SweepAggregate* SweepResult::find(size_t mode, size_t attack,
                                        size_t eps_index) const {
  for (const auto& agg : aggregates) {
    if (agg.mode == mode && agg.attack == attack &&
        agg.eps_index == eps_index) {
      return &agg;
    }
  }
  return nullptr;
}

AlCurve SweepResult::curve(const std::string& mode_label,
                           const std::string& attack_spec) const {
  size_t mode = mode_labels.size();
  for (size_t m = 0; m < mode_labels.size(); ++m) {
    if (mode_labels[m] == mode_label) {
      mode = m;
      break;
    }
  }
  if (mode == mode_labels.size()) {
    std::string known;
    for (const auto& label : mode_labels) known += " '" + label + "'";
    throw std::invalid_argument("SweepResult::curve: unknown mode '" +
                                mode_label + "'; grid modes:" + known);
  }
  // Attack arms match through the registry grammar, not verbatim text:
  // "pgd:steps=7," and "pgd:alpha=0.01,steps=7" vs "pgd:steps=7,alpha=0.01"
  // canonicalize to the same row.
  const std::string wanted = core::canonical_spec("attack", attack_spec);
  size_t attack = attack_specs.size();
  for (size_t a = 0; a < attack_specs.size(); ++a) {
    if (core::canonical_spec("attack", attack_specs[a]) == wanted) {
      attack = a;
      break;
    }
  }
  if (attack == attack_specs.size()) {
    std::string known;
    for (const auto& spec : attack_specs) known += " '" + spec + "'";
    throw std::invalid_argument("SweepResult::curve: unknown attack '" +
                                attack_spec + "'; grid attacks:" + known);
  }
  AlCurve curve;
  curve.label = mode_label;
  for (const auto& agg : aggregates) {
    if (agg.mode != mode || agg.attack != attack) continue;
    AlPoint pt;
    pt.epsilon = agg.epsilon;
    pt.clean_acc = agg.clean.mean;
    pt.adv_acc = agg.adv.mean;
    pt.al = agg.al.mean;
    curve.points.push_back(pt);
  }
  return curve;
}

std::string ExperimentStamp::command() const {
  std::string out = "rhw_run " + preset;
  for (const auto& token : overrides) out += " " + token;
  if (shard_count > 1) {
    out += " --shard=" + std::to_string(shard_index) + "/" +
           std::to_string(shard_count);
  }
  return out;
}

void ExperimentStamp::write_json(JsonWriter& w) const {
  if (preset.empty()) {
    w.null_value();
    return;
  }
  w.begin_object();
  w.field("preset", preset);
  w.field("command", command());
  w.key("overrides");
  w.begin_array();
  for (const auto& token : overrides) w.value(token);
  w.end_array();
  w.key("canonical");
  w.begin_array();
  for (const auto& token : canonical) w.value(token);
  w.end_array();
  // The panel's resolved canonical dataset spec (data::DatasetRegistry).
  if (!dataset.empty()) w.field("dataset", dataset);
  // Shard provenance: which slice of the canonical enumeration this
  // artifact holds, and — post-merge — how many shard files built it.
  if (shard_count > 1) {
    w.key("shard");
    w.begin_object();
    w.field("index", static_cast<int64_t>(shard_index));
    w.field("count", static_cast<int64_t>(shard_count));
    w.end_object();
  }
  if (merged_shards > 0) {
    w.field("merged_shards", static_cast<int64_t>(merged_shards));
  }
  w.end_object();
}

void SweepResult::write_json(const std::string& path,
                             const std::string& figure) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_json: cannot open " + path);
  write_json(os, figure);
  os << '\n';
}

void SweepResult::write_json(std::ostream& os, const std::string& figure,
                             bool payload_only) const {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "rhw-sweep-v4");
  w.field("figure", figure);
  // v4: the experiment spec itself — preset, user overrides, the reproducing
  // command line, and the fully-resolved canonical override list (which
  // rebuilds the spec even if the preset's defaults drift later). Ad-hoc
  // grids (no driver) emit null. The payload view drops the block entirely:
  // shard provenance and per-run command lines legitimately differ between
  // runs whose results must still agree byte-for-byte.
  if (!payload_only) {
    w.key("experiment");
    experiment.write_json(w);
  }
  w.field("trials", static_cast<int64_t>(trials));
  w.field("base_seed", base_seed);
  w.field("cells_total", static_cast<int64_t>(cells_total));
  if (!payload_only) {
    w.field("lanes", static_cast<int64_t>(lanes));
    w.field("wall_seconds", wall_seconds);
  }
  w.key("modes");
  w.begin_array();
  for (const auto& label : mode_labels) w.value(label);
  w.end_array();
  // v3: backend arms are self-describing — hw spec + defense spec + defense
  // display name per key — and modes carry their (grad, eval) pairing, so a
  // front-end can resolve any cell to its full configuration.
  w.key("backends");
  w.begin_array();
  for (const auto& b : backends) {
    w.begin_object();
    w.field("key", b.key);
    w.field("spec", b.spec);
    w.field("defense", b.defense);
    w.field("defense_name", b.defense_name);
    w.end_object();
  }
  w.end_array();
  w.key("mode_defs");
  w.begin_array();
  for (const auto& mode : mode_defs) {
    w.begin_object();
    w.field("label", mode.label);
    w.field("grad", mode.grad);
    w.field("eval", mode.eval);
    w.end_object();
  }
  w.end_array();
  // v2: attacks are registry spec strings; "attack_names" carries the
  // display names in the same order for plotting front-ends.
  w.key("attacks");
  w.begin_array();
  for (const auto& spec : attack_specs) w.value(spec);
  w.end_array();
  w.key("attack_names");
  w.begin_array();
  for (const auto& name : attack_names) w.value(name);
  w.end_array();
  w.key("cells");
  w.begin_array();
  for (const auto& cell : cells) {
    w.begin_object();
    // Canonical enumeration index: the shard partition key and rhw_merge's
    // duplicate/completeness handle.
    w.field("index", static_cast<int64_t>(cell.index));
    w.field("mode", mode_labels[cell.mode]);
    w.field("attack", attack_specs[cell.attack]);
    w.field("eps", static_cast<double>(cell.epsilon));
    w.field("eps_index", static_cast<int64_t>(cell.eps_index));
    w.field("trial", static_cast<int64_t>(cell.trial));
    w.field("seed", cell.seed);
    w.field("clean", cell.clean_acc);
    w.field("adv", cell.adv_acc);
    w.field("al", cell.al);
    // v3: certified L2 radius of the eval arm's defense (0 when the arm
    // does not certify).
    w.field("cert_radius", cell.cert_radius);
    w.end_object();
  }
  w.end_array();
  w.key("aggregates");
  w.begin_array();
  for (const auto& agg : aggregates) {
    w.begin_object();
    w.field("mode", mode_labels[agg.mode]);
    w.field("attack", attack_specs[agg.attack]);
    w.field("eps", static_cast<double>(agg.epsilon));
    w.field("n", agg.al.n);
    w.field("clean_mean", agg.clean.mean);
    w.field("clean_ci95", agg.clean.ci95);
    w.field("adv_mean", agg.adv.mean);
    w.field("adv_ci95", agg.adv.ci95);
    w.field("al_mean", agg.al.mean);
    w.field("al_stddev", agg.al.stddev);
    w.field("al_ci95", agg.al.ci95);
    w.field("cert_mean", agg.cert.mean);
    w.field("cert_ci95", agg.cert.ci95);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace rhw::exp
