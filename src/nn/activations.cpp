#include "nn/activations.hpp"

namespace rhw::nn {

Tensor ReLU::do_forward(const Tensor& x) {
  // No mask in an InferenceScope (and none left from an earlier forward).
  mask_ = inference_mode() ? Tensor() : Tensor(x.shape());
  Tensor out(x.shape());
  const float* in = x.data();
  float* m = mask_.empty() ? nullptr : mask_.data();
  float* o = out.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    const bool pos = in[i] > 0.f;
    if (m != nullptr) m[i] = pos ? 1.f : 0.f;
    o[i] = pos ? in[i] : 0.f;
  }
  return out;
}

Tensor ReLU::do_backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  grad_in.mul_(mask_);
  return grad_in;
}

Tensor Flatten::do_forward(const Tensor& x) {
  input_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::do_backward(const Tensor& grad_out) {
  return grad_out.reshaped(input_shape_);
}

}  // namespace rhw::nn
