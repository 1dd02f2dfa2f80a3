#include "serve/serve_experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "defenses/registry.hpp"
#include "exp/sweep_stats.hpp"
#include "exp/table_printer.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace rhw::serve {

namespace {

// One (arm, offered QPS) point of the latency-vs-load curve.
struct CurvePoint {
  std::string arm;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  uint64_t completed = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t max_us = 0;
  double mean_us = 0.0;
  double mean_batch = 0.0;
  uint64_t batches = 0;
  double accuracy = 0.0;
  uint64_t offered_duration_us = 0;
};

struct ArmResult {
  std::string key;
  std::string hw;
  std::string defense;       // normalized: "none" when empty
  std::string defense_name;  // display name of the resolved defense
  bool stochastic = false;
  uint64_t digest = 0;  // identical across the arm's load points (enforced)
};

}  // namespace

void run_serve_panel(const exp::ExperimentSpec& spec, exp::PanelContext& pc,
                     const exp::ExperimentStamp& stamp,
                     const std::string& artifact) {
  const unsigned lanes =
      spec.lanes > 0 ? static_cast<unsigned>(spec.lanes)
                     : static_cast<unsigned>(rhw::global_pool().size()) + 1;

  const int64_t eval_n = pc.eval_set.size();
  if (eval_n == 0) {
    throw std::invalid_argument("serve: empty evaluation set");
  }
  // Request id i carries eval image (i mod N): the request stream is a pure
  // function of the spec, so every load point of an arm serves identical
  // work and their result digests must agree.
  const int64_t channels = pc.eval_set.images.dim(1);
  const int64_t height = pc.eval_set.images.dim(2);
  const int64_t width = pc.eval_set.images.dim(3);
  const int64_t sample = channels * height * width;
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<size_t>(eval_n));
  for (int64_t i = 0; i < eval_n; ++i) {
    inputs.push_back(Tensor::from_span(
        {1, channels, height, width},
        std::span<const float>(pc.eval_set.images.data() + i * sample,
                               static_cast<size_t>(sample))));
  }

  std::printf(
      "[serve] %u lane(s), batch_max=%lld, linger=%lldus, %lld requests and "
      "%zu load point(s) per arm\n",
      lanes, static_cast<long long>(spec.batch_max),
      static_cast<long long>(spec.linger_us),
      static_cast<long long>(spec.requests), spec.qps.size());

  std::vector<CurvePoint> curve;
  std::vector<ArmResult> arms;
  for (const auto& backend : spec.backends) {
    ServeArm arm;
    arm.key = backend.key;
    arm.hw = backend.hw;
    arm.defense = backend.defense;
    arm.calibration = backend.calibrate ? &pc.data.test : nullptr;
    arm.train_data = &pc.data;

    ArmResult info;
    info.key = backend.key;
    info.hw = backend.hw;
    info.defense = backend.defense.empty() ? "none" : backend.defense;
    info.defense_name =
        defenses::make_defense(info.defense)->name();
    bool have_digest = false;

    for (const float qps : spec.qps) {
      ServerConfig cfg;
      cfg.lanes = lanes;
      cfg.batch_max = spec.batch_max;
      cfg.linger_us = spec.linger_us;
      cfg.seed = spec.seed;
      Server server(pc.model, pc.arch.width_mult, pc.arch.in_size, arm, cfg);
      server.start();

      const LoadGen gen(
          {{RampStage{static_cast<double>(qps), spec.requests}}, spec.seed});
      const std::vector<Arrival> arrivals = gen.schedule();
      const auto t0 = std::chrono::steady_clock::now();
      for (const Arrival& a : arrivals) {
        std::this_thread::sleep_until(t0 +
                                      std::chrono::microseconds(a.time_us));
        server.submit(
            inputs[static_cast<size_t>(a.id % static_cast<uint64_t>(eval_n))]);
      }
      server.shutdown();

      const ServeReport rep = server.report();
      int64_t correct = 0;
      for (const Reply& reply : server.replies()) {
        const auto label_index =
            static_cast<size_t>(reply.id % static_cast<uint64_t>(eval_n));
        if (reply.predicted == pc.eval_set.labels[label_index]) ++correct;
      }

      // The async determinism contract, enforced per run: identical request
      // streams must serve identical results no matter how load shaped the
      // batches.
      if (!have_digest) {
        info.digest = rep.digest;
        info.stochastic = rep.stochastic;
        have_digest = true;
      } else if (rep.digest != info.digest) {
        throw std::runtime_error(
            "serve: result digest drifted across load points on arm '" +
            backend.key + "' — batching leaked into results");
      }

      CurvePoint pt;
      pt.arm = backend.key;
      pt.offered_qps = static_cast<double>(qps);
      pt.achieved_qps = rep.achieved_qps;
      pt.completed = rep.completed;
      pt.p50_us = rep.p50_us;
      pt.p95_us = rep.p95_us;
      pt.p99_us = rep.p99_us;
      pt.max_us = rep.max_us;
      pt.mean_us = rep.mean_us;
      pt.mean_batch = rep.mean_batch;
      pt.batches = rep.batches;
      pt.accuracy = rep.completed == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(correct) /
                              static_cast<double>(rep.completed);
      pt.offered_duration_us = arrivals.empty() ? 0 : arrivals.back().time_us;
      curve.push_back(pt);
    }
    arms.push_back(std::move(info));
  }

  exp::TablePrinter table({"arm", "offered qps", "achieved qps", "done",
                           "p50 us", "p95 us", "p99 us", "mean us", "batch",
                           "acc %"});
  for (const CurvePoint& pt : curve) {
    table.add_row({pt.arm, core::fmt(pt.offered_qps, 0),
                   core::fmt(pt.achieved_qps, 1), std::to_string(pt.completed),
                   std::to_string(pt.p50_us), std::to_string(pt.p95_us),
                   std::to_string(pt.p99_us), core::fmt(pt.mean_us, 0),
                   core::fmt(pt.mean_batch, 1), core::fmt(pt.accuracy, 1)});
  }
  table.print();
  table.write_csv(exp::bench_out_dir() + "/" + pc.tag + ".csv");

  // The knee, summarized per arm: the highest offered load the arm still
  // kept up with, and how far the achieved rate plateaued below the top
  // offered rate once saturated.
  for (const ArmResult& info : arms) {
    double kept_up = 0.0;
    double top_offered = 0.0;
    double top_achieved = 0.0;
    for (const CurvePoint& pt : curve) {
      if (pt.arm != info.key) continue;
      if (pt.achieved_qps >= 0.8 * pt.offered_qps) {
        kept_up = std::max(kept_up, pt.offered_qps);
      }
      if (pt.offered_qps > top_offered) {
        top_offered = pt.offered_qps;
        top_achieved = pt.achieved_qps;
      }
    }
    std::printf(
        "[serve] arm %-10s (%s): kept up through %.0f qps; at %.0f qps "
        "offered it achieved %.1f qps%s digest %016llx\n",
        info.key.c_str(), info.stochastic ? "stochastic" : "fused-batch",
        kept_up, top_offered, top_achieved,
        top_achieved < 0.8 * top_offered ? " (saturated);" : ";",
        static_cast<unsigned long long>(info.digest));
  }

  const std::filesystem::path path(artifact);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream os(artifact);
  if (!os) throw std::runtime_error("serve: cannot open " + artifact);
  exp::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "rhw-serve-v1");
  w.field("figure", pc.tag);
  w.key("experiment");
  if (stamp.preset.empty()) {
    w.null_value();
  } else {
    w.begin_object();
    w.field("preset", stamp.preset);
    w.field("command", stamp.command());
    w.key("overrides");
    w.begin_array();
    for (const auto& token : stamp.overrides) w.value(token);
    w.end_array();
    w.key("canonical");
    w.begin_array();
    for (const auto& token : stamp.canonical) w.value(token);
    w.end_array();
    w.end_object();
  }
  w.field("engine", spec.engine);
  w.field("seed", spec.seed);
  w.field("lanes", static_cast<int64_t>(lanes));
  w.field("batch_max", spec.batch_max);
  w.field("linger_us", spec.linger_us);
  w.field("requests_per_point", spec.requests);
  w.key("arms");
  w.begin_array();
  for (const ArmResult& info : arms) {
    w.begin_object();
    w.field("key", info.key);
    w.field("spec", info.hw);
    w.field("defense", info.defense);
    w.field("defense_name", info.defense_name);
    w.field("stochastic", info.stochastic);
    w.field("digest", info.digest);
    w.end_object();
  }
  w.end_array();
  w.key("curve");
  w.begin_array();
  for (const CurvePoint& pt : curve) {
    w.begin_object();
    w.field("arm", pt.arm);
    w.field("offered_qps", pt.offered_qps);
    w.field("achieved_qps", pt.achieved_qps);
    w.field("completed", pt.completed);
    w.field("p50_us", pt.p50_us);
    w.field("p95_us", pt.p95_us);
    w.field("p99_us", pt.p99_us);
    w.field("max_us", pt.max_us);
    w.field("mean_us", pt.mean_us);
    w.field("mean_batch", pt.mean_batch);
    w.field("batches", pt.batches);
    w.field("accuracy", pt.accuracy);
    w.field("offered_duration_us", pt.offered_duration_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  std::printf("[serve] wrote %s\n", artifact.c_str());
}

}  // namespace rhw::serve
