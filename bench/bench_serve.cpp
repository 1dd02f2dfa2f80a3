// Serving bench: thin wrapper over the "serve_curve" experiment preset —
// equivalently: `rhw_run serve_curve`. Serves every arm at each offered
// rate through serve::Server (micro-batching, per-lane backend replicas)
// under deterministic open-loop Poisson load, and writes the
// latency-vs-offered-load curve to BENCH_serve.json (rhw-serve-v1,
// docs/SERVING.md). Extra arguments pass through as overrides; CI runs it
// untrained and shorter with `train=none requests=64`.
#include <string>
#include <vector>

#include "exp/experiment_registry.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args{"serve_curve"};
  args.insert(args.end(), argv + 1, argv + argc);
  return rhw::exp::rhw_run_main(args);
}
