#include "nn/residual.hpp"

namespace rhw::nn {

ResidualBlock::ResidualBlock(int64_t in_channels, int64_t out_channels,
                             int64_t stride)
    : conv1_(std::make_unique<Conv2d>(in_channels, out_channels, 3, stride, 1,
                                      /*bias=*/false)),
      bn1_(std::make_unique<BatchNorm2d>(out_channels)),
      relu1_(std::make_unique<ReLU>()),
      conv2_(std::make_unique<Conv2d>(out_channels, out_channels, 3, 1, 1,
                                      /*bias=*/false)),
      bn2_(std::make_unique<BatchNorm2d>(out_channels)) {
  if (stride != 1 || in_channels != out_channels) {
    proj_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride,
                                          0, /*bias=*/false);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

std::vector<Param*> ResidualBlock::parameters() {
  std::vector<Param*> out;
  for (Module* m : children()) {
    auto ps = m->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::vector<Module*> ResidualBlock::children() {
  std::vector<Module*> out{conv1_.get(), bn1_.get(), relu1_.get(), conv2_.get(),
                           bn2_.get()};
  if (proj_conv_) {
    out.push_back(proj_conv_.get());
    out.push_back(proj_bn_.get());
  }
  return out;
}

void ResidualBlock::set_training(bool training) {
  Module::set_training(training);
  for (Module* m : children()) m->set_training(training);
}

Module* ResidualBlock::shortcut_tail() {
  return proj_bn_ ? static_cast<Module*>(proj_bn_.get()) : nullptr;
}

Tensor ResidualBlock::do_forward(const Tensor& x) {
  Tensor main = conv1_->forward(x);
  main = bn1_->forward(main);
  main = relu1_->forward(main);
  main = conv2_->forward(main);
  main = bn2_->forward(main);

  Tensor shortcut = x;
  if (proj_conv_) {
    shortcut = proj_conv_->forward(x);
    shortcut = proj_bn_->forward(shortcut);
  }

  main.add_(shortcut);
  // Final ReLU, inlined so we keep its mask for backward (none in an
  // InferenceScope, where the children release their caches too).
  final_mask_ = inference_mode() ? Tensor() : Tensor(main.shape());
  float* m = final_mask_.empty() ? nullptr : final_mask_.data();
  float* v = main.data();
  for (int64_t i = 0; i < main.numel(); ++i) {
    const bool pos = v[i] > 0.f;
    if (m != nullptr) m[i] = pos ? 1.f : 0.f;
    if (!pos) v[i] = 0.f;
  }
  return main;
}

Tensor ResidualBlock::do_backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  g.mul_(final_mask_);

  // Main path
  Tensor gmain = bn2_->backward(g);
  gmain = conv2_->backward(gmain);
  gmain = relu1_->backward(gmain);
  gmain = bn1_->backward(gmain);
  gmain = conv1_->backward(gmain);

  // Shortcut path
  if (proj_conv_) {
    Tensor gshort = proj_bn_->backward(g);
    gshort = proj_conv_->backward(gshort);
    gmain.add_(gshort);
  } else {
    gmain.add_(g);
  }
  return gmain;
}

}  // namespace rhw::nn
