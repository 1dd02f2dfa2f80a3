// Fast Gradient Sign Method (Goodfellow et al., 2014), Eq. (1) of the paper:
//   X_adv = X + eps * sign(grad_X L(theta, X, y_true))
//
// Gradients are always computed with activation-memory noise hooks disabled
// (paper Sec. III-A) and in inference mode (BatchNorm running statistics).
#pragma once

#include <vector>

#include "nn/loss.hpp"
#include "nn/module.hpp"

namespace rhw::attacks {

using nn::Tensor;

// d(mean CE loss)/d(input), computed inside nn::Module::InputGradientScope:
// the net's parameter gradients are left untouched, and the net keeps no
// parameter-gradient state, so a backward() right after it throws (run a
// fresh forward to train). Restores the net's training flag.
//
// with_noise=false (default) computes the gradient under HooksDisabledScope —
// the paper's rule that bit-error noise is absent during gradient computation
// (ungated crossbar peripheral hooks still apply; each substrate keeps its
// own rules). with_noise=true leaves every hook active: one sample of the
// *stochastic* loss surface, the building block of EOT gradient averaging
// (pgd.hpp, PgdConfig::noisy_grad).
Tensor input_gradient(nn::Module& net, const Tensor& x,
                      const std::vector<int64_t>& labels,
                      bool with_noise = false);

struct FgsmConfig {
  float epsilon = 0.1f;
  float clip_lo = 0.f;  // valid pixel range
  float clip_hi = 1.f;
};

// Crafts adversarial inputs using grad_net's loss landscape.
Tensor fgsm(nn::Module& grad_net, const Tensor& x,
            const std::vector<int64_t>& labels, const FgsmConfig& cfg);

}  // namespace rhw::attacks
