// One programmed crossbar tile with a selectable circuit model.
#pragma once

#include <vector>

#include "xbar/conductance.hpp"

namespace rhw::xbar {

enum class CircuitModel {
  kIdeal,       // no parasitics: G' = G (variation still applies if enabled)
  kFastApprox,  // series-path IR-drop model (nonideal.hpp) — pipeline default
  kExactMna,    // full grid solve (mna_solver.hpp) — validation/small arrays
};

class CrossbarArray {
 public:
  // Programs w [out_m x in_n] (leading dimension ldw) onto a tile of `spec`,
  // applying process variation when variation_rng != nullptr, then computes
  // the non-ideal conductances under `model`.
  CrossbarArray(const float* w, int64_t out_m, int64_t in_n, int64_t ldw,
                const CrossbarSpec& spec, CircuitModel model,
                rhw::RandomEngine* variation_rng);

  // Differential column currents for row voltages x (size in_n), scaled back
  // to weight units: y_o = sum_i W'_oi * x_i  (size out_m).
  std::vector<float> matvec(const std::vector<float>& x) const;

  // The weights the non-ideal tile effectively realizes, [out_m x in_n].
  const std::vector<float>& effective_weights() const { return w_eff_; }

  const CrossbarSpec& spec() const { return spec_; }
  int64_t out_m() const { return tile_.out_m; }
  int64_t in_n() const { return tile_.in_n; }

 private:
  CrossbarSpec spec_;
  ProgrammedTile tile_;
  std::vector<float> w_eff_;
};

}  // namespace rhw::xbar
