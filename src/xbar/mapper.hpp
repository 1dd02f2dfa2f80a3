// Maps a trained DNN onto memristive crossbar tiles (RxNN-style).
//
// Every Conv2d/Linear weight matrix [out x in] is tiled into spec.rows x
// spec.cols crossbars; each tile is programmed as a differential conductance
// pair with Gaussian process variation, distorted by the selected circuit
// model, and the resulting *effective* weights are written back into the
// layer. The mapped network is therefore the hardware model: evaluating it is
// Attack-SH's target, and computing gradients through it is Attack-HH.
//
// Peripherals: column outputs pass through an ADC (fake-quantized to
// adc_bits) after picking up multiplicative read noise. Both are installed as
// ungated post-forward hooks — they are part of the hardware forward path, so
// (unlike SRAM bit-error noise) they remain active while HH attack gradients
// are computed. The backward pass treats them as identity (straight-through),
// which is precisely the gradient-obfuscation mechanism the paper credits for
// HH attacks being weaker than SH on complex datasets.
#pragma once

#include <cstdint>

#include "nn/module.hpp"
#include "xbar/crossbar_array.hpp"

namespace rhw::xbar {

struct XbarMapConfig {
  CrossbarSpec spec;
  CircuitModel model = CircuitModel::kFastApprox;
  bool process_variation = true;
  // Per-layer gain calibration: sense amplifiers / ADC references are trimmed
  // so each layer's mean |weight| matches the programmed target. This removes
  // the uniform attenuation from driver/sense crowding (which any real design
  // calibrates out) and leaves exactly the *distortion* the paper studies.
  bool gain_calibration = true;
  uint64_t seed = 0xB0B0;
  int adc_bits = 5;                // 0 disables ADC quantization
  // Multiplicative per-read output noise:
  //   sigma_layer = read_noise_sigma
  //               + read_noise_scale   * (layer mean relative weight error)
  //               + ir_fluctuation     * (layer mean IR-drop attenuation)
  // The attenuation term models the *input-dependence* of the IR drop: the
  // linearized G' is computed for nominal conditions, but the true drop
  // tracks instantaneous input activity, which shows up as read-to-read
  // fluctuation. It grows with array size and with smaller R_MIN — the
  // mechanism behind the paper's Table III and Fig. 8a robustness trends —
  // and cannot be removed by the static gain calibration.
  double read_noise_sigma = 0.005;
  double read_noise_scale = 0.5;
  double ir_fluctuation = 0.03;
  // Additive noise on gradients computed THROUGH the hardware (HH attacks,
  // on-chip training): per layer, g += grad_noise_scale * rms(g) * z. Analog
  // gradient reads see the same thermal/ADC noise floor as forward reads,
  // but gradients are far smaller signals, so their effective SNR is much
  // worse — small-magnitude gradient components (most of them) lose their
  // sign, which is precisely the gradient obfuscation of the paper's Fig. 1:
  // HH adversaries become weaker than SH transfers. Set 0 to model an
  // attacker with digital off-chip autodiff of the hardware equations.
  double grad_noise_scale = 0.3;
};

struct XbarMapReport {
  int64_t num_layers = 0;
  int64_t num_tiles = 0;
  // |w_eff - w| statistics after gain calibration, normalized per layer by
  // max|w|.
  double mean_rel_weight_error = 0.0;
  double max_rel_weight_error = 0.0;
  // Mean uncalibrated IR-drop attenuation (1 - sum|w_eff| / sum|w|) across
  // layers: the raw crowding/wire loss the calibration compensated.
  double mean_ir_attenuation = 0.0;
};

// Mutates net in place (callers clone the software baseline first): programs
// every rank-2 "weight" parameter onto crossbar tiles, writes the effective
// weights back, and installs the peripheral (ADC/read-noise) and gradient
// hooks.
XbarMapReport map_onto_crossbars(nn::Module& net, const XbarMapConfig& cfg);

}  // namespace rhw::xbar
