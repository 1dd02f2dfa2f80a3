// Randomized smoothing (Cohen et al., 2019) behind the defense seam.
//
// The smoothed classifier predicts by majority vote over `samples` Gaussian
// perturbations of the input, each run through the wrapped (possibly noisy)
// inner model. Because the wrapper composes around a prepared
// hw::HardwareBackend, "smooth over sram" is a smoothed *noisy-hardware*
// classifier — the shootout arm the paper's comparison was missing.
//
// Determinism: the smoothing noise comes from a private RandomEngine whose
// seeder is registered through the module hook-seeder channel, so
// nn::reseed_noise_streams pins it per evaluation pass exactly like the
// hardware noise streams. A smoothed-noisy sweep arm is therefore
// bit-identical at any lane count (tests/defenses/test_defense_sweep.cpp).
//
// Cost: the N noisy copies do NOT run as N sequential forwards. votes()
// tiles them into one large batch (chunked to bound activation memory) so
// the compute engine's batched conv and gemm (threaded blocks) amortize
// across copies. bench_micro's BM_SmoothVotes* pair records the
// batched-vs-sequential speedup. Noise draws happen copy-major in the same
// linear order the sequential loop used, so the copies see identical
// perturbations.
//
// Gradients: do_backward is straight-through the *last* noisy sample's
// cached state — the usual straight-through treatment for vote-based
// inference (do_forward runs that final copy as its own inner pass, so the
// cache is input-shaped and belongs to a counted vote). White-box gradient
// attacks on a smoothed arm see that proxy gradient; the honest adaptive
// attack remains "eot_pgd" on the inner model.
#pragma once

#include "core/rng.hpp"
#include "defenses/certify.hpp"
#include "defenses/defense.hpp"
#include "nn/module.hpp"

namespace rhw::defenses {

struct SmoothConfig {
  float sigma = 0.25f;   // Gaussian noise stddev (input scale, pixels in 0..1)
  int samples = 32;      // Monte-Carlo votes per prediction
  double alpha = 0.001;  // certification confidence: bounds hold w.p. 1-alpha
  float clip_lo = 0.f;   // valid pixel range for the noisy copies
  float clip_hi = 1.f;
};

// Wraps an existing network: forward returns vote-share "logits"
// (votes / samples per class) from `samples` noisy passes of the inner
// model. Argmax of the output is the smoothed prediction.
class SmoothedModule final : public nn::Module {
 public:
  SmoothedModule(nn::Module& inner, SmoothConfig cfg);

  // Vote counts [N, num_classes] over `samples` noisy copies (cfg.samples
  // when <= 0), evaluated through the inner model in large batched chunks.
  // Advances the smoothing noise stream; pin it first via
  // reseed_noise_streams for reproducible counts.
  Tensor votes(const Tensor& x, int samples = 0);

  const SmoothConfig& config() const { return cfg_; }

  std::vector<nn::Param*> parameters() override {
    return inner_->parameters();
  }
  std::vector<nn::Module*> children() override { return {inner_}; }
  std::vector<std::pair<std::string, Tensor*>> named_state() override {
    return {};
  }
  std::string type_name() const override { return "SmoothedModule"; }
  void set_training(bool training) override {
    nn::Module::set_training(training);
    inner_->set_training(training);
  }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override {
    return inner_->backward(grad_out);  // straight-through, last sample
  }

 private:
  // With input_shaped_tail, the final copy runs as its own inner pass so the
  // inner cache do_backward replays is input-shaped and belongs to a counted
  // vote (do_forward's mode; votes() batches every copy).
  Tensor votes_impl(const Tensor& x, int samples, bool input_shaped_tail);

  nn::Module* inner_;  // non-owning
  SmoothConfig cfg_;
  RandomEngine rng_;
};

// The smoothing defense's wrapper backend: serves the SmoothedModule and
// certifies predictions following Cohen et al.'s CERTIFY — an independent
// selection batch picks the candidate class, a fresh estimation batch gives
// its Clopper-Pearson lower bound, and the radius is sigma * Phi^-1 of it.
class SmoothedBackend final : public WrappedBackend, public Certifier {
 public:
  SmoothedBackend(hw::HardwareBackend& inner, SmoothConfig cfg);

  double mean_certified_radius(const data::Dataset& ds, int64_t batch_size,
                               uint64_t seed) override;

  // The substrate's report with the defense overhead priced in: a smoothed
  // prediction pays `samples` substrate forwards, so energy_nj scales by the
  // vote count, with the raw substrate energy kept as a line item — the
  // defense shootout ranks defenses at iso-energy off these numbers.
  hw::EnergyReport energy_report() const override;

  const SmoothConfig& config() const { return smoothed_->config(); }

 private:
  SmoothedModule* smoothed_;  // owned by WrappedBackend's wrapper module
};

}  // namespace rhw::defenses
