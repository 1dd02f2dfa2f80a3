#include "xbar/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "quant/quantizer.hpp"
#include "xbar/tiled_matrix.hpp"

namespace rhw::xbar {

namespace {

// Installs the peripheral model (read noise + ADC quantization) as an
// ungated hook on the layer output. layer_distortion is the layer's mean
// (post-calibration) relative weight error; layer_attenuation is the raw
// IR-drop loss the gain calibration removed. Both scale the stochastic
// read noise (see XbarMapConfig).
void install_peripheral_hook(nn::Module& layer, const XbarMapConfig& cfg,
                             double layer_distortion, double layer_attenuation,
                             uint64_t layer_seed) {
  const double sigma_d = cfg.read_noise_sigma +
                         cfg.read_noise_scale * layer_distortion +
                         cfg.ir_fluctuation * layer_attenuation;
  if (cfg.adc_bits > 0 || sigma_d > 0.0) {
    auto rng = std::make_shared<rhw::RandomEngine>(layer_seed);
    const int adc_bits = cfg.adc_bits;
    const auto sigma = static_cast<float>(sigma_d);
    layer.set_post_hook(
        [rng, adc_bits, sigma](nn::Tensor& t) {
          if (sigma > 0.f) {
            for (float& v : t.span()) v *= 1.f + sigma * rng->gaussian();
          }
          if (adc_bits > 0) quant::fake_quantize_symmetric_(t, adc_bits);
        },
        /*gated=*/false,
        // Read noise is stochastic: expose the stream to
        // nn::reseed_noise_streams so evaluation passes are reproducible.
        [rng](uint64_t seed) { rng->reseed(seed); });
  }
  // Gradients computed *through* the hardware (HH attacks, on-chip training)
  // read the same noisy analog arrays; additive RMS-relative noise scrambles
  // the sign of small gradient components — the paper's gradient
  // obfuscation (see XbarMapConfig::grad_noise_scale).
  if (cfg.grad_noise_scale > 0.0) {
    auto grad_rng = std::make_shared<rhw::RandomEngine>(layer_seed ^ 0x6AD5);
    const auto gscale = static_cast<float>(cfg.grad_noise_scale);
    layer.set_backward_hook(
        [grad_rng, gscale](nn::Tensor& g) {
          const float rms =
              g.numel() > 0
                  ? g.l2_norm() / std::sqrt(static_cast<float>(g.numel()))
                  : 0.f;
          const float sigma_add = gscale * rms;
          if (sigma_add <= 0.f) return;
          for (float& v : g.span()) v += sigma_add * grad_rng->gaussian();
        },
        /*gated=*/false,
        [grad_rng](uint64_t seed) { grad_rng->reseed(seed); });
  }
}

}  // namespace

XbarMapReport map_onto_crossbars(nn::Module& net, const XbarMapConfig& cfg) {
  XbarMapReport report;
  rhw::RandomEngine master(cfg.seed);
  double err_acc = 0.0;
  int64_t err_count = 0;
  double atten_acc = 0.0;

  for (nn::Module* layer : nn::collect_weight_layers(net)) {
    ++report.num_layers;
    rhw::RandomEngine layer_rng = master.fork(report.num_layers);
    double layer_err_acc = 0.0;
    int64_t layer_err_count = 0;
    double layer_atten_acc = 0.0;
    int64_t layer_atten_count = 0;
    for (nn::Param* p : layer->parameters()) {
      if (p->name != "weight" || p->value.rank() != 2) continue;
      Tensor& w = p->value;
      const int64_t out = w.dim(0), in = w.dim(1);
      const float layer_scale = std::max(w.abs_max(), 1e-12f);
      Tensor original = w;
      const TiledWeights tiled = tiled_effective_weights(
          original.data(), out, in, in, cfg.spec, cfg.model,
          cfg.process_variation ? &layer_rng : nullptr);
      report.num_tiles += tiled.num_tiles;
      const std::vector<float>& w_eff = tiled.weights;
      double abs_orig = 0.0, abs_eff = 0.0;
      for (int64_t o = 0; o < out; ++o) {
        for (int64_t i = 0; i < in; ++i) {
          const float eff = w_eff[static_cast<size_t>(o * in + i)];
          w.at(o, i) = eff;
          abs_orig += std::fabs(original.at(o, i));
          abs_eff += std::fabs(eff);
        }
      }
      if (abs_orig > 0.0) {
        layer_atten_acc += std::max(0.0, 1.0 - abs_eff / abs_orig);
        ++layer_atten_count;
      }
      if (cfg.gain_calibration) {
        // Per-output-channel trim: each crossbar column has its own sense
        // amplifier / ADC reference, so the per-column gain is calibrated
        // individually (standard practice). Residual distortion is the
        // within-column structure calibration cannot reach.
        for (int64_t o = 0; o < out; ++o) {
          double row_orig = 0.0, row_eff = 0.0;
          for (int64_t i = 0; i < in; ++i) {
            row_orig += std::fabs(original.at(o, i));
            row_eff += std::fabs(w.at(o, i));
          }
          if (row_eff > 0.0) {
            const auto gain = static_cast<float>(row_orig / row_eff);
            for (int64_t i = 0; i < in; ++i) w.at(o, i) *= gain;
          }
        }
      }
      for (int64_t o = 0; o < out; ++o) {
        for (int64_t i = 0; i < in; ++i) {
          const double rel = std::fabs(w.at(o, i) - original.at(o, i)) /
                             static_cast<double>(layer_scale);
          err_acc += rel;
          ++err_count;
          layer_err_acc += rel;
          ++layer_err_count;
          report.max_rel_weight_error =
              std::max(report.max_rel_weight_error, rel);
        }
      }
    }
    const double layer_distortion =
        layer_err_count > 0 ? layer_err_acc / static_cast<double>(layer_err_count)
                            : 0.0;
    const double layer_attenuation =
        layer_atten_count > 0
            ? layer_atten_acc / static_cast<double>(layer_atten_count)
            : 0.0;
    atten_acc += layer_attenuation;
    install_peripheral_hook(*layer, cfg, layer_distortion, layer_attenuation,
                            cfg.seed ^ (0xFEED * report.num_layers));
  }
  report.mean_rel_weight_error =
      err_count > 0 ? err_acc / static_cast<double>(err_count) : 0.0;
  report.mean_ir_attenuation =
      report.num_layers > 0
          ? atten_acc / static_cast<double>(report.num_layers)
          : 0.0;
  return report;
}

}  // namespace rhw::xbar
