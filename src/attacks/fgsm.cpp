#include "attacks/fgsm.hpp"

namespace rhw::attacks {

namespace {

// The one place attack gradients run: forward and backward keep and compute
// only what dx needs, so parameter gradients stay untouched.
Tensor backprop_to_input(nn::Module& net, const Tensor& x,
                         const std::vector<int64_t>& labels) {
  const nn::Module::InputGradientScope input_gradient_only;
  const Tensor logits = net.forward(x);
  nn::SoftmaxCrossEntropy loss;
  loss.forward(logits, labels);
  return net.backward(loss.backward());
}

}  // namespace

Tensor input_gradient(nn::Module& net, const Tensor& x,
                      const std::vector<int64_t>& labels, bool with_noise) {
  const bool was_training = net.training();
  net.set_training(false);
  Tensor grad;
  if (with_noise) {
    grad = backprop_to_input(net, x, labels);
  } else {
    nn::Module::HooksDisabledScope no_noise;
    grad = backprop_to_input(net, x, labels);
  }
  net.set_training(was_training);
  return grad;
}

Tensor fgsm(nn::Module& grad_net, const Tensor& x,
            const std::vector<int64_t>& labels, const FgsmConfig& cfg) {
  if (cfg.epsilon == 0.f) return x;
  Tensor grad = input_gradient(grad_net, x, labels);
  grad.sign_();
  Tensor adv = x;
  adv.add_scaled_(grad, cfg.epsilon);
  adv.clamp_(cfg.clip_lo, cfg.clip_hi);
  return adv;
}

}  // namespace rhw::attacks
