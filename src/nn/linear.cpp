#include "nn/linear.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/gemm.hpp"

namespace rhw::nn {

Linear::Linear(int64_t in_features, int64_t out_features, bool bias)
    : in_f_(in_features),
      out_f_(out_features),
      has_bias_(bias),
      weight_("weight", Tensor({out_features, in_features})),
      bias_("bias", Tensor({bias ? out_features : 0})) {}

std::vector<Param*> Linear::parameters() {
  std::vector<Param*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

Tensor Linear::do_forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_f_) {
    throw std::invalid_argument("Linear: bad input shape " + x.shape_str());
  }
  // Only dW reads the input copy: none in either scope.
  input_ = backward_needs() == BackwardNeeds::kAll ? x : Tensor();
  const int64_t n = x.dim(0);
  Tensor out({n, out_f_});
  // out = x [n, in] * W^T [in, out], bias folded through the engine's beta
  // path: broadcast it into the output rows and accumulate with beta = 1
  // instead of a scalar fix-up loop after the GEMM.
  if (has_bias_) {
    const float* b = bias_.value.data();
    for (int64_t i = 0; i < n; ++i) {
      std::copy(b, b + out_f_, out.data() + i * out_f_);
    }
  }
  gemm(false, true, n, out_f_, in_f_, 1.f, x.data(), in_f_,
       weight_.value.data(), in_f_, has_bias_ ? 1.f : 0.f, out.data(), out_f_);
  return out;
}

Tensor Linear::do_backward(const Tensor& grad_out) {
  const int64_t n = grad_out.dim(0);
  if (kept_param_grads()) {
    // dW += gout^T [out, n] * x [n, in]
    gemm(true, false, out_f_, in_f_, n, 1.f, grad_out.data(), out_f_,
         input_.data(), in_f_, 1.f, weight_.grad.data(), in_f_);
    if (has_bias_) {
      for (int64_t i = 0; i < n; ++i) {
        const float* row = grad_out.data() + i * out_f_;
        for (int64_t j = 0; j < out_f_; ++j) bias_.grad[j] += row[j];
      }
    }
  }
  // dx = gout [n, out] * W [out, in]
  Tensor grad_in({n, in_f_});
  gemm(false, false, n, in_f_, out_f_, 1.f, grad_out.data(), out_f_,
       weight_.value.data(), in_f_, 0.f, grad_in.data(), in_f_);
  return grad_in;
}

}  // namespace rhw::nn
