#include "quant/quanos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "attacks/fgsm.hpp"
#include "core/stats.hpp"
#include "quant/quantizer.hpp"

namespace rhw::quant {

namespace {

// Per-layer activation snapshots for one forward pass.
struct Capture {
  std::vector<Tensor> activations;
};

void attach_capture_hooks(const std::vector<nn::Module*>& layers,
                          Capture& capture) {
  capture.activations.assign(layers.size(), Tensor());
  for (size_t i = 0; i < layers.size(); ++i) {
    Tensor* slot = &capture.activations[i];
    layers[i]->set_post_hook([slot](Tensor& t) { *slot = t; });
  }
}

void clear_hooks(const std::vector<nn::Module*>& layers) {
  for (nn::Module* m : layers) m->clear_post_hook();
}

}  // namespace

QuanosReport apply_quanos(nn::Module& model, const data::Dataset& sample,
                          const QuanosConfig& cfg) {
  auto layers = nn::collect_weight_layers(model);
  if (layers.empty()) throw std::invalid_argument("apply_quanos: no layers");
  const bool was_training = model.training();
  model.set_training(false);

  const auto probe = sample.head(cfg.sample_count);
  QuanosReport report;
  report.ans.assign(layers.size(), 0.0);
  int64_t batches = 0;

  Capture capture;
  for (int64_t begin = 0; begin < probe.size(); begin += cfg.batch_size) {
    const auto batch = probe.slice(begin, begin + cfg.batch_size);
    // Adversarial probe (hooks are disabled inside the gradient pass).
    attacks::FgsmConfig fc;
    fc.epsilon = cfg.ans_epsilon;
    const Tensor adv = attacks::fgsm(model, batch.images, batch.labels, fc);

    const nn::Module::InferenceScope inference;  // the probes: no backward
    attach_capture_hooks(layers, capture);
    (void)model.forward(batch.images);
    std::vector<Tensor> clean_acts = std::move(capture.activations);
    attach_capture_hooks(layers, capture);
    (void)model.forward(adv);
    std::vector<Tensor> adv_acts = std::move(capture.activations);
    clear_hooks(layers);

    for (size_t l = 0; l < layers.size(); ++l) {
      const double clean_norm = clean_acts[l].l2_norm();
      const double delta = adv_acts[l].sub(clean_acts[l]).l2_norm();
      report.ans[l] += delta / std::max(clean_norm, 1e-9);
    }
    ++batches;
  }
  for (double& a : report.ans) a /= std::max<int64_t>(1, batches);

  std::vector<double> sorted(report.ans.begin(), report.ans.end());
  report.ans_median = rhw::median_of(sorted);

  // Assignment: high-sensitivity layers get the aggressive bitwidth.
  report.bits.resize(layers.size());
  for (size_t l = 0; l < layers.size(); ++l) {
    report.bits[l] =
        report.ans[l] >= report.ans_median ? cfg.low_bits : cfg.high_bits;
  }

  // Apply: fake-quantize weights, install activation quantization hooks.
  for (size_t l = 0; l < layers.size(); ++l) {
    const int bits = report.bits[l];
    for (nn::Param* p : layers[l]->parameters()) {
      if (p->name == "weight") fake_quantize_symmetric_(p->value, bits);
    }
    layers[l]->set_post_hook(
        [bits](Tensor& t) { fake_quantize_symmetric_(t, bits); });
  }

  model.set_training(was_training);
  return report;
}

}  // namespace rhw::quant
