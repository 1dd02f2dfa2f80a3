#include "xbar/crossbar_array.hpp"

#include <stdexcept>

#include "xbar/mna_solver.hpp"
#include "xbar/nonideal.hpp"

namespace rhw::xbar {

CrossbarArray::CrossbarArray(const float* w, int64_t out_m, int64_t in_n,
                             int64_t ldw, const CrossbarSpec& spec,
                             CircuitModel model,
                             rhw::RandomEngine* variation_rng)
    : spec_(spec),
      tile_(program_tile(w, out_m, in_n, ldw, spec, variation_rng)) {
  std::vector<double> g_pos_eff, g_neg_eff;
  switch (model) {
    case CircuitModel::kIdeal:
      g_pos_eff = tile_.g_pos;
      g_neg_eff = tile_.g_neg;
      break;
    case CircuitModel::kFastApprox:
      g_pos_eff = nonideal_conductances(tile_.g_pos, spec_);
      g_neg_eff = nonideal_conductances(tile_.g_neg, spec_);
      break;
    case CircuitModel::kExactMna: {
      // The exact solver already includes driver/sense/wire paths, and the
      // network is linear, so the effective conductance matrix fully
      // characterizes the tile.
      MnaSolver pos(tile_.g_pos, spec_);
      MnaSolver neg(tile_.g_neg, spec_);
      g_pos_eff = pos.effective_conductance();
      g_neg_eff = neg.effective_conductance();
      break;
    }
  }
  w_eff_ = tile_weights(tile_, g_pos_eff, g_neg_eff, spec_);
}

std::vector<float> CrossbarArray::matvec(const std::vector<float>& x) const {
  if (static_cast<int64_t>(x.size()) != tile_.in_n) {
    throw std::invalid_argument("CrossbarArray::matvec: bad input size");
  }
  std::vector<float> y(static_cast<size_t>(tile_.out_m), 0.f);
  for (int64_t o = 0; o < tile_.out_m; ++o) {
    double acc = 0.0;
    const float* wrow = w_eff_.data() + o * tile_.in_n;
    for (int64_t i = 0; i < tile_.in_n; ++i) {
      acc += static_cast<double>(wrow[i]) * x[static_cast<size_t>(i)];
    }
    y[static_cast<size_t>(o)] = static_cast<float>(acc);
  }
  return y;
}

}  // namespace rhw::xbar
