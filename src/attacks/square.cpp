#include "attacks/square.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace rhw::attacks {

namespace {

// Per-example margin z_true - max_{k != true} z_k from one batched query.
// Negative margin = misclassified = the attack has succeeded on that row.
std::vector<float> query_margins(nn::Module& net, const Tensor& x,
                                 const std::vector<int64_t>& labels) {
  const nn::Module::InferenceScope inference;  // a query: no backward
  const Tensor logits = net.forward(x);
  const int64_t n = logits.dim(0);
  const int64_t k = logits.dim(1);
  std::vector<float> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t y = labels[static_cast<size_t>(i)];
    float best_other = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < k; ++j) {
      if (j == y) continue;
      best_other = std::max(best_other, logits.at(i, j));
    }
    out[static_cast<size_t>(i)] = logits.at(i, y) - best_other;
  }
  return out;
}

// The paper's piecewise p schedule, rescaled to an arbitrary query budget:
// the window-area fraction halves as the search progresses from coarse
// stripes to single-pixel refinements.
float p_for_round(float p_init, int round, int budget) {
  const float frac =
      budget > 0 ? static_cast<float>(round) / static_cast<float>(budget) : 1.f;
  float p = p_init;
  for (const float threshold : {0.05f, 0.2f, 0.4f, 0.6f, 0.8f}) {
    if (frac >= threshold) p *= 0.5f;
  }
  return p;
}

}  // namespace

Tensor square_attack(nn::Module& eval_net, const Tensor& x,
                     const std::vector<int64_t>& labels,
                     const SquareConfig& cfg) {
  if (cfg.epsilon == 0.f || cfg.queries <= 0 || x.dim(0) == 0) return x;
  const bool was_training = eval_net.training();
  eval_net.set_training(false);

  // Geometry: [N,C,H,W] images, or [N,F] rows as a degenerate Fx1 grid.
  const int64_t n = x.dim(0);
  int64_t c = 1, h = 1, w = 1;
  if (x.rank() == 4) {
    c = x.dim(1);
    h = x.dim(2);
    w = x.dim(3);
  } else {
    h = x.numel() / std::max<int64_t>(n, 1);
  }
  const int64_t plane = h * w;

  RandomEngine rng(derive_stream_seed(cfg.seed, kSquareProposalStream));
  // Pin the query noise: the whole query sequence (and therefore the crafted
  // batch) is a pure function of cfg.seed. The evaluation harness re-pins
  // eval streams before measuring accuracy (attacks/evaluate.cpp).
  nn::reseed_noise_streams(eval_net,
                           derive_stream_seed(cfg.seed, kSquareQueryStream));

  auto pixel = [&](float* base, int64_t ni, int64_t ci, int64_t hi,
                   int64_t wi) -> float& {
    return base[((ni * c + ci) * h + hi) * w + wi];
  };

  // Init (query 1): vertical +-eps stripes — per (example, channel, column)
  // sign, the paper's initialization.
  Tensor adv = x;
  {
    float* a = adv.data();
    for (int64_t ni = 0; ni < n; ++ni) {
      for (int64_t ci = 0; ci < c; ++ci) {
        for (int64_t wi = 0; wi < w; ++wi) {
          const float delta = rng.bernoulli(0.5) ? cfg.epsilon : -cfg.epsilon;
          for (int64_t hi = 0; hi < h; ++hi) {
            float& v = pixel(a, ni, ci, hi, wi);
            v = std::clamp(v + delta, cfg.clip_lo, cfg.clip_hi);
          }
        }
      }
    }
  }
  std::vector<float> best = query_margins(eval_net, adv, labels);

  struct Proposal {
    int64_t r = 0, s = 0, side = 1;
    std::vector<float> delta;  // per-channel +-eps
  };
  std::vector<Proposal> proposals(static_cast<size_t>(n));

  for (int round = 1; round < cfg.queries; ++round) {
    const float p = p_for_round(cfg.p_init, round, cfg.queries);
    const int64_t side = std::clamp<int64_t>(
        static_cast<int64_t>(std::lround(
            std::sqrt(p * static_cast<float>(plane)))),
        1, std::min(h, w));

    // Build all candidates, one window proposal per example, then pay a
    // single batched query for the whole batch.
    Tensor cand = adv;
    float* cd = cand.data();
    const float* xc = x.data();
    for (int64_t ni = 0; ni < n; ++ni) {
      Proposal& prop = proposals[static_cast<size_t>(ni)];
      prop.side = side;
      prop.r = h > side ? static_cast<int64_t>(rng.next_below(
                              static_cast<uint64_t>(h - side + 1)))
                        : 0;
      prop.s = w > side ? static_cast<int64_t>(rng.next_below(
                              static_cast<uint64_t>(w - side + 1)))
                        : 0;
      prop.delta.assign(static_cast<size_t>(c), 0.f);
      for (int64_t ci = 0; ci < c; ++ci) {
        prop.delta[static_cast<size_t>(ci)] =
            rng.bernoulli(0.5) ? cfg.epsilon : -cfg.epsilon;
        for (int64_t hi = prop.r; hi < prop.r + side; ++hi) {
          for (int64_t wi = prop.s; wi < prop.s + side; ++wi) {
            const float base =
                xc[((ni * c + ci) * h + hi) * w + wi];
            pixel(cd, ni, ci, hi, wi) =
                std::clamp(base + prop.delta[static_cast<size_t>(ci)],
                           cfg.clip_lo, cfg.clip_hi);
          }
        }
      }
    }

    const std::vector<float> margins = query_margins(eval_net, cand, labels);
    float* a = adv.data();
    const float* cc = cand.data();
    for (int64_t ni = 0; ni < n; ++ni) {
      // Greedy acceptance: keep the window only where the margin improved.
      if (margins[static_cast<size_t>(ni)] >= best[static_cast<size_t>(ni)]) {
        continue;
      }
      best[static_cast<size_t>(ni)] = margins[static_cast<size_t>(ni)];
      const Proposal& prop = proposals[static_cast<size_t>(ni)];
      for (int64_t ci = 0; ci < c; ++ci) {
        for (int64_t hi = prop.r; hi < prop.r + prop.side; ++hi) {
          for (int64_t wi = prop.s; wi < prop.s + prop.side; ++wi) {
            pixel(a, ni, ci, hi, wi) =
                cc[((ni * c + ci) * h + hi) * w + wi];
          }
        }
      }
    }
  }

  eval_net.set_training(was_training);
  return adv;
}

}  // namespace rhw::attacks
