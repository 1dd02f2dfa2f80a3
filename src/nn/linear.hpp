// Fully connected layer: y = x W^T + b, weight [out_features, in_features].
#pragma once

#include "nn/module.hpp"

namespace rhw::nn {

class Linear final : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, bool bias = true);

  std::vector<Param*> parameters() override;
  std::string type_name() const override { return "Linear"; }
  bool is_weight_layer() const override { return true; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }
  int64_t in_features() const { return in_f_; }
  int64_t out_features() const { return out_f_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int64_t in_f_, out_f_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor input_;  // [N, in]; empty after a forward in either scope
};

}  // namespace rhw::nn
