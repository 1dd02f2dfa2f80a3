#include "xbar/tiled_matrix.hpp"

#include <algorithm>

namespace rhw::xbar {

TiledWeights tiled_effective_weights(const float* w, int64_t out, int64_t in,
                                     int64_t ldw, const CrossbarSpec& spec,
                                     CircuitModel model,
                                     rhw::RandomEngine* variation_rng) {
  TiledWeights result;
  result.weights.assign(static_cast<size_t>(out * in), 0.f);
  for (int64_t i0 = 0; i0 < in; i0 += spec.rows) {
    const int64_t in_n = std::min(spec.rows, in - i0);
    for (int64_t o0 = 0; o0 < out; o0 += spec.cols) {
      const int64_t out_m = std::min(spec.cols, out - o0);
      const CrossbarArray tile(w + o0 * ldw + i0, out_m, in_n, ldw, spec,
                               model, variation_rng);
      const std::vector<float>& w_eff = tile.effective_weights();
      for (int64_t o = 0; o < out_m; ++o) {
        std::copy_n(w_eff.data() + o * in_n, in_n,
                    result.weights.data() + (o0 + o) * in + i0);
      }
      ++result.num_tiles;
    }
  }
  return result;
}

}  // namespace rhw::xbar
