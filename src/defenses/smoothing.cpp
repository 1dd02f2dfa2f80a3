#include "defenses/smoothing.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "defenses/input_transforms.hpp"

namespace rhw::defenses {

SmoothedModule::SmoothedModule(nn::Module& inner, SmoothConfig cfg)
    : inner_(&inner), cfg_(cfg) {
  if (!(cfg_.sigma > 0.f)) {
    throw std::invalid_argument("SmoothedModule: sigma must be > 0");
  }
  if (cfg_.samples < 1) {
    throw std::invalid_argument("SmoothedModule: samples must be >= 1");
  }
  // Register the smoothing noise stream through the hook-seeder channel so
  // reseed_noise_streams pins it per evaluation pass like any hardware noise
  // stream. The hook itself is an identity — only the seeder matters.
  set_post_hook([](Tensor&) {}, /*gated=*/false,
                [this](uint64_t seed) { rng_.reseed(seed); });
}

Tensor SmoothedModule::votes(const Tensor& x, int samples) {
  return votes_impl(x, samples, /*input_shaped_tail=*/false);
}

Tensor SmoothedModule::votes_impl(const Tensor& x, int samples,
                                  bool input_shaped_tail) {
  if (samples <= 0) samples = cfg_.samples;
  const int64_t n = x.dim(0);
  // Copies ride through the inner model as one tiled batch so the substrate
  // amortizes its batched matmul path across them, chunked so activation
  // memory stays bounded: at least one copy per pass, at most ~kMaxRows
  // stacked rows.
  constexpr int64_t kMaxRows = 512;
  const int copies_per_pass =
      static_cast<int>(std::max<int64_t>(1, kMaxRows / std::max<int64_t>(n, 1)));

  Tensor counts;
  auto run_chunk = [&](int copies) {
    Shape stacked_shape = x.shape();
    stacked_shape[0] = n * copies;
    Tensor stacked(stacked_shape);
    for (int c = 0; c < copies; ++c) {
      std::copy(x.data(), x.data() + x.numel(),
                stacked.data() + static_cast<int64_t>(c) * x.numel());
    }
    // One linear pass over the stack draws noise copy-major — the exact
    // element order a copy-by-copy loop would use, so the perturbations are
    // independent of the chunking.
    add_gaussian_noise(stacked, cfg_.sigma, cfg_.clip_lo, cfg_.clip_hi, rng_);
    const Tensor logits = inner_->forward(stacked);
    if (counts.empty()) counts = Tensor::zeros({n, logits.dim(1)});
    const auto preds = logits.argmax_rows();
    for (int c = 0; c < copies; ++c) {
      for (int64_t i = 0; i < n; ++i) {
        counts.at(i, preds[static_cast<size_t>(c * n + i)]) += 1.f;
      }
    }
  };
  // With an input-shaped tail requested (do_forward), the final copy runs as
  // its own pass: the inner cache it leaves behind IS the straight-through
  // state for do_backward — no replay forward, and the cached activations
  // belong to a copy that was actually counted in the vote. No backward reads
  // the bulk copies, so they keep no backward state; the tail runs in the
  // caller's mode.
  const int bulk = input_shaped_tail ? samples - 1 : samples;
  {
    const nn::Module::InferenceScope inference;
    for (int s0 = 0; s0 < bulk; s0 += copies_per_pass) {
      run_chunk(std::min(copies_per_pass, bulk - s0));
    }
  }
  if (input_shaped_tail) run_chunk(1);
  return counts;
}

Tensor SmoothedModule::do_forward(const Tensor& x) {
  Tensor counts = votes_impl(x, 0, /*input_shaped_tail=*/true);
  // Vote shares as logits: argmax is the majority-vote prediction, and the
  // scale is attack-agnostic (0..1 like softmax probabilities).
  counts.scale_(1.f / static_cast<float>(cfg_.samples));
  return counts;
}

SmoothedBackend::SmoothedBackend(hw::HardwareBackend& inner, SmoothConfig cfg)
    : WrappedBackend("smooth", inner,
                     std::make_unique<SmoothedModule>(inner.module(), cfg)),
      smoothed_(nullptr) {
  smoothed_ = static_cast<SmoothedModule*>(&module());
}

hw::EnergyReport SmoothedBackend::energy_report() const {
  hw::EnergyReport report = WrappedBackend::energy_report();
  const SmoothConfig& cfg = smoothed_->config();
  const double substrate_nj = report.energy_nj;
  // One smoothed prediction = `samples` substrate forwards: the vote count
  // multiplies the substrate's dynamic energy (batching amortizes latency,
  // not energy). Area is unchanged — the votes time-share one substrate.
  report.energy_nj = substrate_nj * static_cast<double>(cfg.samples);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", substrate_nj);
  report.details.emplace_back("smooth_votes",
                              std::to_string(cfg.samples) + "x forwards");
  report.details.emplace_back("substrate_energy_nj", buf);
  return report;
}

double SmoothedBackend::mean_certified_radius(const data::Dataset& ds,
                                              int64_t batch_size,
                                              uint64_t seed) {
  if (ds.size() == 0) return 0.0;
  const bool was_training = module().training();
  module().set_training(false);
  // Pin every stream in the wrapper tree — the smoothing noise AND the inner
  // substrate's hooks — so the certificate is a pure function of
  // (model, ds, config, seed).
  nn::reseed_noise_streams(module(), seed);
  const SmoothConfig& cfg = smoothed_->config();
  // Cohen et al.'s CERTIFY: the class under test comes from an independent
  // selection batch, and the Clopper-Pearson bound from a fresh estimation
  // batch of the full cfg.samples draws. Reusing one batch for both would
  // bias the argmax-selected count upward and void the 1 - alpha guarantee.
  const int selection_samples = std::max(1, cfg.samples / 4);
  double radius_sum = 0.0;
  for (int64_t begin = 0; begin < ds.size(); begin += batch_size) {
    const auto batch = ds.slice(begin, begin + batch_size);
    const Tensor selection = smoothed_->votes(batch.images, selection_samples);
    const auto candidates = selection.argmax_rows();
    const Tensor counts = smoothed_->votes(batch.images, cfg.samples);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i] != batch.labels[i]) continue;  // wrong class: 0
      const auto k = static_cast<int64_t>(
          counts.at(static_cast<int64_t>(i), candidates[i]));
      radius_sum += certified_radius(cfg.sigma, k, cfg.samples, cfg.alpha);
    }
  }
  module().set_training(was_training);
  return radius_sum / static_cast<double>(ds.size());
}

}  // namespace rhw::defenses
