// BatchNorm2d with running statistics for inference.
#pragma once

#include "nn/module.hpp"

namespace rhw::nn {

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  std::vector<Param*> parameters() override;
  std::vector<std::pair<std::string, Tensor*>> named_state() override;
  std::string type_name() const override { return "BatchNorm2d"; }

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int64_t channels_;
  float eps_, momentum_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;

  // caches for backward
  Tensor x_hat_;     // normalized input; empty when no backward reads it
  Tensor inv_std_;   // [C]; empty after a forward in an InferenceScope
  bool forward_was_training_ = true;
};

}  // namespace rhw::nn
