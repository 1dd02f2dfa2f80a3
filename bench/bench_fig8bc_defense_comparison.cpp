// Fig. 8(b)-(c): thin wrapper over the "fig8bc" experiment preset —
// equivalently: `rhw_run fig8bc`. Extra arguments pass through as
// overrides; CI regenerates the artifact on the small-model pipeline with
// `model=vgg8 dataset=synth-c10 eval_count=64` (same schema and arm
// structure as the full figure, and the artifact stamps the overrides).
#include <string>
#include <vector>

#include "exp/experiment_registry.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args{"fig8bc"};
  args.insert(args.end(), argv + 1, argv + argc);
  return rhw::exp::rhw_run_main(args);
}
