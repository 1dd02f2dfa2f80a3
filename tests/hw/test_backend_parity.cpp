// Backend-parity suite: the hardware seam must not change the math it wraps.
//
//  - IdealBackend is bit-exact with the raw module;
//  - SramBackend at vdd = 0.9 (negligible 6T error rate) matches ideal
//    within tolerance;
//  - the xbar tile grid assembles exactly the per-tile CrossbarArray weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "hw/ideal_backend.hpp"
#include "hw/registry.hpp"
#include "hw/sram_backend.hpp"
#include "models/zoo.hpp"
#include "nn/model_io.hpp"
#include "xbar/tiled_matrix.hpp"

namespace rhw {
namespace {

models::Model tiny_model(uint64_t seed = 3) {
  models::Model model = models::build_model("vgg8", 10, 0.125f, 16);
  RandomEngine rng(seed);
  for (nn::Param* p : model.net->parameters()) {
    p->value = Tensor::randn(p->value.shape(), rng, 0.f, 0.1f);
  }
  model.net->set_training(false);
  return model;
}

models::Model clone_of(const models::Model& src) {
  return models::clone_model(src, 0.125f, 16);
}

Tensor random_batch(int64_t n, uint64_t seed) {
  RandomEngine rng(seed);
  return Tensor::rand_uniform({n, 3, 16, 16}, rng);
}

TEST(BackendParity, IdealBitExactWithRawModule) {
  models::Model raw = tiny_model();
  models::Model backed = clone_of(raw);
  auto backend = hw::make_backend("ideal");
  backend->prepare(backed);

  const Tensor x = random_batch(4, 11);
  const Tensor want = raw.net->forward(x);
  const Tensor got = backend->forward(x);
  ASSERT_TRUE(want.same_shape(got));
  for (int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "at index " << i;
  }
}

TEST(BackendParity, SramHighVddMatchesIdealWithinTolerance) {
  models::Model raw = tiny_model();
  models::Model backed = clone_of(raw);
  // 0.9 V: the 6T bit-error rate is negligible, so the noisy forward pass
  // should coincide with the ideal one up to (rare) single-bit flips.
  auto backend = hw::make_backend("sram:vdd=0.9,sites=3,num_8t=4");
  backend->prepare(backed);

  const Tensor x = random_batch(8, 13);
  const Tensor want = raw.net->forward(x);
  const Tensor got = backend->forward(x);
  ASSERT_TRUE(want.same_shape(got));
  double max_diff = 0.0;
  for (int64_t i = 0; i < want.numel(); ++i) {
    max_diff = std::max(max_diff,
                        static_cast<double>(std::fabs(want[i] - got[i])));
  }
  EXPECT_LT(max_diff, 1e-2);
}

TEST(BackendParity, SramLowVddActuallyPerturbs) {
  models::Model raw = tiny_model();
  models::Model backed = clone_of(raw);
  auto backend = hw::make_backend("sram:vdd=0.6,sites=3,num_8t=0");
  backend->prepare(backed);

  const Tensor x = random_batch(8, 13);
  const Tensor want = raw.net->forward(x);
  const Tensor got = backend->forward(x);
  double max_diff = 0.0;
  for (int64_t i = 0; i < want.numel(); ++i) {
    max_diff = std::max(max_diff,
                        static_cast<double>(std::fabs(want[i] - got[i])));
  }
  EXPECT_GT(max_diff, 0.0);
}

TEST(BackendParity, TiledEffectiveWeightsMatchPerTileArrays) {
  // 40 x 20 over 16 x 16 tiles: partial tiles along both dimensions. Each
  // block of the assembled matrix must be exactly the CrossbarArray built on
  // that block — with variation on, when the blocks are programmed in the
  // documented order (input blocks outer) from the same RNG stream.
  const int64_t out = 20, in = 40;
  RandomEngine rng(23);
  std::vector<float> w(static_cast<size_t>(out * in));
  for (auto& v : w) v = rng.uniform(-1.f, 1.f);
  xbar::CrossbarSpec spec;
  spec.rows = 16;
  spec.cols = 16;
  for (const bool variation : {false, true}) {
    const auto model = variation ? xbar::CircuitModel::kFastApprox
                                 : xbar::CircuitModel::kIdeal;
    RandomEngine var(24), ref_var(24);
    const xbar::TiledWeights tiled = xbar::tiled_effective_weights(
        w.data(), out, in, in, spec, model, variation ? &var : nullptr);
    ASSERT_EQ(tiled.weights.size(), w.size());
    EXPECT_EQ(tiled.num_tiles, 3 * 2);
    for (int64_t i0 = 0; i0 < in; i0 += spec.rows) {
      const int64_t in_n = std::min(spec.rows, in - i0);
      for (int64_t o0 = 0; o0 < out; o0 += spec.cols) {
        const int64_t out_m = std::min(spec.cols, out - o0);
        const xbar::CrossbarArray tile(w.data() + o0 * in + i0, out_m, in_n,
                                       in, spec, model,
                                       variation ? &ref_var : nullptr);
        const auto& want = tile.effective_weights();
        for (int64_t o = 0; o < out_m; ++o) {
          for (int64_t i = 0; i < in_n; ++i) {
            const auto tile_at = static_cast<size_t>(o * in_n + i);
            const auto grid_at = static_cast<size_t>((o0 + o) * in + i0 + i);
            ASSERT_EQ(want[tile_at], tiled.weights[grid_at])
                << "variation " << variation << " tile (" << i0 << ", " << o0
                << ") element (" << o << ", " << i << ")";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rhw
