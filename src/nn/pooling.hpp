// Max and average pooling.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace rhw::nn {

class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(int64_t kernel = 2, int64_t stride = 0 /*=kernel*/);

  std::string type_name() const override { return "MaxPool2d"; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int64_t kernel_, stride_;
  Shape input_shape_;
  // Flat input index per output element; empty after a forward in an
  // InferenceScope.
  std::vector<int64_t> argmax_;
};

class AvgPool2d final : public Module {
 public:
  // kernel == 0 means global average pooling (kernel = full spatial extent).
  explicit AvgPool2d(int64_t kernel = 0, int64_t stride = 0 /*=kernel*/);

  std::string type_name() const override { return "AvgPool2d"; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int64_t kernel_, stride_;
  Shape input_shape_;
  int64_t eff_kernel_ = 0, eff_stride_ = 0;
};

}  // namespace rhw::nn
