// The serving driver behind `rhw_run serve_smoke` / `rhw_run serve_curve`:
// the bridge between ExperimentSpec's serve knobs (serve=1, qps=, requests=,
// batch_max=, linger_us=, lanes=) and serve::Server + serve::LoadGen.
//
// For every (backend, defense) arm x offered-QPS point it builds a fresh
// Server from the panel's trained model, replays the LoadGen schedule
// against std::chrono::steady_clock, and records offered vs achieved QPS
// plus p50/p95/p99/mean/max latency — the latency-vs-offered-load curve
// whose saturation knee the compute-engine and batching knobs move. Results
// print as a table and land in an rhw-serve-v1 JSON artifact embedding the
// exact reproducing command (docs/SERVING.md has the schema).
//
// Request-level determinism is enforced, not just claimed: within an arm,
// every load point serves the identical request stream (ids restart at 0),
// so the order-independent result digests must match across points — the
// run fails loudly if batching timing ever leaks into results.
#pragma once

#include <string>

#include "exp/experiment_registry.hpp"

namespace rhw::serve {

// Runs one panel of a serve=1 spec (the serving counterpart of the sweep
// path in run_experiment). `artifact` is the output JSON path.
void run_serve_panel(const exp::ExperimentSpec& spec, exp::PanelContext& pc,
                     const exp::ExperimentStamp& stamp,
                     const std::string& artifact);

}  // namespace rhw::serve
