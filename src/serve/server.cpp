#include "serve/server.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/rng.hpp"
#include "nn/module.hpp"

namespace rhw::serve {

namespace {

// [C,H,W] or [1,C,H,W] -> an owned [1,C,H,W] copy.
Tensor normalize_input(const Tensor& image) {
  if (image.rank() == 3) {
    return image.reshaped({1, image.dim(0), image.dim(1), image.dim(2)});
  }
  if (image.rank() == 4 && image.dim(0) == 1) return image;
  throw std::invalid_argument(
      "serve: submit expects one [C,H,W] or [1,C,H,W] image");
}

}  // namespace

uint64_t Server::request_seed(uint64_t serve_seed, uint64_t request_id) {
  return derive_stream_seed(derive_stream_seed(serve_seed, kServeRequestStream),
                            request_id);
}

Server::Server(const models::Model& model, float width_mult, int64_t in_size,
               ServeArm arm, ServerConfig config)
    : model_(&model),
      width_mult_(width_mult),
      in_size_(in_size),
      arm_(std::move(arm)),
      config_(config),
      batcher_(BatchPolicy{config.batch_max, config.linger_us}) {
  if (config_.lanes < 1) {
    throw std::invalid_argument("serve: lanes must be >= 1");
  }
}

Server::~Server() { shutdown(); }

void Server::build_lanes() {
  const defenses::DefensePtr defense =
      defenses::make_defense(arm_.defense.empty() ? "none" : arm_.defense);
  defenses::DefenseContext dctx;
  dctx.train_data = arm_.train_data;
  dctx.calibration = arm_.calibration;

  // Lane 0 is the prototype; every further lane is built from it by the
  // same defenses::prepare_arm rule as SweepEngine's replicas. Lanes are
  // built serially: serving cost is steady-state, not startup.
  for (unsigned i = 0; i < config_.lanes; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->arm = defenses::prepare_arm(*model_, width_mult_, in_size_, arm_.hw,
                                      *defense, dctx,
                                      i == 0 ? nullptr : &lanes_[0]->arm);
    lanes_.push_back(std::move(lane));
  }

  // An arm with live noise streams (stochastic substrate or defense wrapper)
  // must be re-seeded and run per request; a noise-free arm has no seeders
  // and this call is a no-op, unlocking the fused batched forward.
  stochastic_ = nn::reseed_noise_streams(lanes_[0]->arm.serving()->module(),
                                         request_seed(config_.seed, 0)) > 0;
}

void Server::start() {
  if (started_) throw std::logic_error("serve: start() called twice");
  build_lanes();
  t0_ = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(mu_);
    accepting_ = true;
  }
  for (size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i]->thread = std::thread([this, i] { worker(i); });
  }
  started_ = true;
}

uint64_t Server::now_us() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

uint64_t Server::submit(const Tensor& image) {
  Tensor input = normalize_input(image);
  uint64_t id = 0;
  {
    std::lock_guard lock(mu_);
    if (!accepting_) {
      throw std::logic_error("serve: submit() after shutdown()");
    }
    id = next_id_++;
    const uint64_t t = now_us();
    if (id == 0) first_enqueue_us_ = t;
    batcher_.push({id, std::move(input), t});
  }
  cv_.notify_one();
  return id;
}

void Server::worker(size_t lane_index) {
  for (;;) {
    std::vector<PendingRequest> batch;
    {
      std::unique_lock lock(mu_);
      for (;;) {
        batch = batcher_.pop_ready(now_us(), !accepting_);
        if (!batch.empty()) break;
        if (batcher_.depth() == 0) {
          if (!accepting_) return;  // drained; shutdown() is joining us
          cv_.wait(lock);
        } else {
          // Requests queued but the size trigger hasn't fired: sleep until
          // the oldest request's linger deadline (or an earlier notify).
          cv_.wait_until(lock, t0_ + std::chrono::microseconds(
                                         batcher_.next_deadline_us()));
        }
      }
    }
    execute(lane_index, std::move(batch));
  }
}

void Server::execute(size_t lane_index, std::vector<PendingRequest> batch) {
  hw::HardwareBackend* serving = lanes_[lane_index]->arm.serving();
  const size_t n = batch.size();
  std::vector<int64_t> predicted(n);
  std::vector<float> score(n);

  auto score_rows = [&](const Tensor& logits, size_t base) {
    const std::vector<int64_t> argmax = logits.argmax_rows();
    const int64_t classes = logits.dim(1);
    for (int64_t row = 0; row < logits.dim(0); ++row) {
      predicted[base + static_cast<size_t>(row)] = argmax[row];
      score[base + static_cast<size_t>(row)] =
          logits.data()[row * classes + argmax[row]];
    }
  };

  // Serving never runs a backward: the replica keeps no activation caches.
  const nn::Module::InferenceScope inference;
  if (stochastic_) {
    // Live noise streams: pin each request to its derived seed and run it
    // alone, so the result depends only on (serve seed, request id) — never
    // on which lane ran it or what shared a micro-batch with it.
    for (size_t i = 0; i < n; ++i) {
      nn::reseed_noise_streams(serving->module(),
                               request_seed(config_.seed, batch[i].id));
      score_rows(serving->forward(batch[i].input), i);
    }
  } else {
    // Noise-free arm: one fused batched forward. Per-sample results are
    // bit-identical to a serial forward because every kernel accumulates
    // within a sample in an order independent of the batch dimension
    // (asserted by tests/serve/test_server.cpp).
    const Tensor& first = batch[0].input;
    Tensor fused({static_cast<int64_t>(n), first.dim(1), first.dim(2),
                  first.dim(3)});
    const size_t sample = static_cast<size_t>(first.numel());
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(fused.data() + i * sample, batch[i].input.data(),
                  sample * sizeof(float));
    }
    score_rows(serving->forward(fused), 0);
  }

  const uint64_t done = now_us();
  {
    std::lock_guard lock(done_mu_);
    for (size_t i = 0; i < n; ++i) {
      Reply reply;
      reply.id = batch[i].id;
      reply.predicted = predicted[i];
      reply.score = score[i];
      reply.enqueue_us = batch[i].enqueue_us;
      reply.done_us = done;
      reply.latency_us = done - batch[i].enqueue_us;
      reply.batch_size = n;
      reply.lane = static_cast<unsigned>(lane_index);
      latency_.record(reply.latency_us);
      replies_.push_back(reply);
    }
    ++batches_;
    if (done > last_done_us_) last_done_us_ = done;
  }
}

void Server::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (!accepting_ && !started_) return;
    accepting_ = false;
  }
  cv_.notify_all();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
  started_ = false;
}

std::vector<Reply> Server::replies() const {
  std::lock_guard lock(done_mu_);
  std::vector<Reply> out = replies_;
  std::sort(out.begin(), out.end(),
            [](const Reply& a, const Reply& b) { return a.id < b.id; });
  return out;
}

ServeReport Server::report() const {
  ServeReport report;
  report.stochastic = stochastic_;
  uint64_t first_enqueue = 0;
  {
    std::lock_guard lock(mu_);
    first_enqueue = first_enqueue_us_;
  }
  std::lock_guard lock(done_mu_);
  report.completed = latency_.count();
  report.batches = batches_;
  report.mean_batch =
      batches_ == 0 ? 0.0
                    : static_cast<double>(report.completed) /
                          static_cast<double>(batches_);
  if (last_done_us_ > first_enqueue && report.completed > 0) {
    report.achieved_qps =
        static_cast<double>(report.completed) /
        (static_cast<double>(last_done_us_ - first_enqueue) * 1e-6);
  }
  report.mean_us = latency_.mean();
  report.p50_us = latency_.percentile(50.0);
  report.p95_us = latency_.percentile(95.0);
  report.p99_us = latency_.percentile(99.0);
  report.max_us = latency_.max();
  for (const Reply& reply : replies_) {
    report.digest ^= derive_stream_seed(
        reply.id, static_cast<uint64_t>(reply.predicted) + 1);
  }
  return report;
}

std::string Server::arm_name() const {
  if (lanes_.empty()) return arm_.key;
  return lanes_[0]->arm.serving()->name();
}

}  // namespace rhw::serve
