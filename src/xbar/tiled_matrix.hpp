// A full [out x in] weight matrix realized as a grid of crossbar tiles.
//
// Tiles are programmed input-blocks outer, output-blocks inner. A shared
// variation RNG draws in that order, so the order is part of every mapped
// weight (tests/xbar/test_mapper.cpp pins them bit for bit).
#pragma once

#include <cstdint>
#include <vector>

#include "xbar/crossbar_array.hpp"

namespace rhw::xbar {

struct TiledWeights {
  // The effective (non-ideal) weights the tile grid realizes, [out x in]
  // row-major — what the mapper writes back into the layer.
  std::vector<float> weights;
  int64_t num_tiles = 0;
};

// Programs w [out x in] (row-major, leading dimension ldw) onto
// ceil(in / spec.rows) x ceil(out / spec.cols) tiles and assembles their
// effective weights.
TiledWeights tiled_effective_weights(const float* w, int64_t out, int64_t in,
                                     int64_t ldw, const CrossbarSpec& spec,
                                     CircuitModel model,
                                     rhw::RandomEngine* variation_rng);

}  // namespace rhw::xbar
