// serve::Server: a batching robust-inference server over one (hw-spec,
// defense-spec) arm — the serving counterpart of exp::SweepEngine.
//
// Requests enter an in-process queue via submit(); worker lanes drain it
// through a serve::Batcher (max batch size + max linger deadline) and run
// each micro-batch on the lane's own prepared backend replica. Lanes are
// built by defenses::prepare_arm, the same builder as SweepEngine's
// replicas: the prototype pays for defense hardening and (possibly
// calibration-driven) prepare() once, later lanes reproduce its state — so
// defense-wrapped arms ("ideal+jpeg_quant:bits=4") serve like any other
// hardware, from the same spec strings as sweeps.
//
// Determinism contract (the sweep engine's bar, extended to the async path):
// request id i evaluates under request_seed(seed, i) — a splitmix64-derived
// stream — regardless of which lane runs it, how requests were batched, or
// the wall-clock arrival pattern. Stochastic arms (live noise hooks detected
// via nn::reseed_noise_streams) are re-seeded per request and run requests
// individually; noise-free arms run one fused batched forward, whose
// per-sample results are bit-identical to a serial forward because kernel
// accumulation order within a sample does not depend on the batch dimension.
// Either way: same seed => same per-request outputs, at any lane count
// (tests/serve/test_server.cpp).
//
// Timing uses std::chrono::steady_clock exclusively (monotonic-clock-only
// rule, docs/LINT.md); latency aggregates stream into a LatencyHistogram.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/synth_cifar.hpp"
#include "defenses/registry.hpp"
#include "models/vgg.hpp"
#include "serve/batcher.hpp"
#include "serve/latency.hpp"

namespace rhw::serve {

// Stream id under the serve seed for per-request noise reseeding.
inline constexpr uint64_t kServeRequestStream = 0x5E12;

// One serving arm: the same (hw spec, defense spec, calibration) triple as
// exp::SweepBackendDef. train_data feeds training-time defenses (adv_train).
struct ServeArm {
  std::string key;      // display key ("ideal", "disc4b", ...)
  std::string hw = "ideal";
  std::string defense;  // defenses::DefenseRegistry spec; "" = none
  const data::Dataset* calibration = nullptr;
  const data::SynthCifar* train_data = nullptr;
};

struct ServerConfig {
  unsigned lanes = 1;        // worker lanes, one prepared replica each; >= 1
  int64_t batch_max = 16;    // micro-batch size cap
  int64_t linger_us = 2000;  // max queue wait of the oldest request
  uint64_t seed = 0xADE5;    // per-request seeds derive from this
};

// One completed request.
struct Reply {
  uint64_t id = 0;
  int64_t predicted = -1;   // argmax class
  float score = 0.f;        // max logit (bitwise parity checks)
  uint64_t enqueue_us = 0;  // vs the server's steady_clock epoch
  uint64_t done_us = 0;
  uint64_t latency_us = 0;
  uint64_t batch_size = 0;  // size of the micro-batch that carried it
  unsigned lane = 0;
};

// Aggregated view of a finished run.
struct ServeReport {
  uint64_t completed = 0;
  uint64_t batches = 0;
  double mean_batch = 0.0;
  double achieved_qps = 0.0;  // completed / (last done - first enqueue)
  double mean_us = 0.0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t max_us = 0;
  // Order-independent fold of every (id, predicted, score bits) triple: two
  // runs served the same results iff their digests match, regardless of
  // completion order. The score's bit pattern makes it see noise that moves
  // a logit without flipping the argmax. The cheap request-level
  // determinism check.
  uint64_t digest = 0;
  bool stochastic = false;
};

class Server {
 public:
  // `model` is the trained baseline (never mutated); geometry feeds
  // models::clone_model for the per-lane replicas.
  Server(const models::Model& model, float width_mult, int64_t in_size,
         ServeArm arm, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Builds the replicas (prototype first, then one defenses::prepare_arm
  // replica per extra lane) and spawns the worker lanes. Throws the registries' token-naming
  // std::invalid_argument on a bad hw/defense spec.
  void start();

  // Enqueues one classify request ([C,H,W] or [1,C,H,W]); returns its id
  // (sequential from 0). Throws std::logic_error after shutdown().
  uint64_t submit(const Tensor& image);

  // Stops accepting, drains the queue (every submitted request completes),
  // joins the lanes. Idempotent.
  void shutdown();

  // Completed requests, sorted by id. Valid after shutdown().
  std::vector<Reply> replies() const;
  ServeReport report() const;

  bool stochastic() const { return stochastic_; }
  unsigned lanes() const { return config_.lanes; }
  // The prototype's serving backend display name ("Jpeg+Quant(ideal)", ...).
  std::string arm_name() const;

  // The per-request noise stream: derive(derive(seed, kServeRequestStream),
  // id). Exposed so tests reproduce any request serially.
  static uint64_t request_seed(uint64_t serve_seed, uint64_t request_id);

 private:
  struct Lane {
    defenses::PreparedArm arm;
    std::thread thread;
  };

  uint64_t now_us() const;
  void worker(size_t lane_index);
  void execute(size_t lane_index, std::vector<PendingRequest> batch);
  void build_lanes();

  const models::Model* model_;
  float width_mult_;
  int64_t in_size_;
  ServeArm arm_;
  ServerConfig config_;
  std::chrono::steady_clock::time_point t0_;

  std::vector<std::unique_ptr<Lane>> lanes_;
  bool started_ = false;
  bool stochastic_ = false;

  // Queue state (mu_): batcher, acceptance flag, id counter.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Batcher batcher_;
  bool accepting_ = false;
  uint64_t next_id_ = 0;
  uint64_t first_enqueue_us_ = 0;

  // Completion state (done_mu_): replies + streaming aggregates.
  mutable std::mutex done_mu_;
  std::vector<Reply> replies_;
  LatencyHistogram latency_;
  uint64_t batches_ = 0;
  uint64_t last_done_us_ = 0;
};

}  // namespace rhw::serve
