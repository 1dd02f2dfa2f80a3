// 2-d convolution lowered to GEMM through im2col.
//
// Weight layout: [out_channels, in_channels * kh * kw] (the flattened form the
// crossbar mapper programs directly onto tiles). Bias: [out_channels].
#pragma once

#include "core/im2col.hpp"
#include "nn/module.hpp"

namespace rhw::nn {

class Conv2d final : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride = 1, int64_t pad = 1, bool bias = true);

  std::vector<Param*> parameters() override;
  std::string type_name() const override { return "Conv2d"; }
  bool is_weight_layer() const override { return true; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }
  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  int64_t kernel() const { return kernel_; }
  int64_t stride() const { return stride_; }
  int64_t pad() const { return pad_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;
  Param bias_;

  // forward caches (input_, which only dW reads, is empty after a forward in
  // an InputGradientScope or an InferenceScope)
  Tensor input_;     // [N, C, H, W]
  ConvGeom geom_;
};

}  // namespace rhw::nn
