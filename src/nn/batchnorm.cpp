#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace rhw::nn {

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_("gamma", Tensor({channels}, 1.f)),
      beta_("beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_(Shape{channels}, 1.f) {}

std::vector<Param*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

std::vector<std::pair<std::string, Tensor*>> BatchNorm2d::named_state() {
  auto out = Module::named_state();
  out.emplace_back("running_mean", &running_mean_);
  out.emplace_back("running_var", &running_var_);
  return out;
}

Tensor BatchNorm2d::do_forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d: bad input " + x.shape_str());
  }
  const int64_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const int64_t plane = h * w;
  const int64_t per_channel = n * plane;
  forward_was_training_ = training_;

  std::vector<float> mean(static_cast<size_t>(c));
  std::vector<float> var(static_cast<size_t>(c));
  if (training_) {
    for (int64_t ci = 0; ci < c; ++ci) {
      double acc = 0.0;
      for (int64_t ni = 0; ni < n; ++ni) {
        const float* p = x.data() + (ni * c + ci) * plane;
        for (int64_t i = 0; i < plane; ++i) acc += p[i];
      }
      const float mu = static_cast<float>(acc / per_channel);
      double vacc = 0.0;
      for (int64_t ni = 0; ni < n; ++ni) {
        const float* p = x.data() + (ni * c + ci) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          const double d = p[i] - mu;
          vacc += d * d;
        }
      }
      mean[static_cast<size_t>(ci)] = mu;
      var[static_cast<size_t>(ci)] = static_cast<float>(vacc / per_channel);
      running_mean_[ci] =
          (1.f - momentum_) * running_mean_[ci] + momentum_ * mu;
      running_var_[ci] = (1.f - momentum_) * running_var_[ci] +
                         momentum_ * var[static_cast<size_t>(ci)];
    }
  } else {
    for (int64_t ci = 0; ci < c; ++ci) {
      mean[static_cast<size_t>(ci)] = running_mean_[ci];
      var[static_cast<size_t>(ci)] = running_var_[ci];
    }
  }

  // Caches are released, not written, where no backward reads them: x_hat
  // feeds dgamma and the train-mode dx, inv_std every dx. The output goes
  // through the same float operations either way.
  const BackwardNeeds needs = backward_needs();
  const bool keep = needs != BackwardNeeds::kNone;
  const bool keep_xhat =
      needs == BackwardNeeds::kAll || (keep && training_);
  x_hat_ = keep_xhat ? Tensor(x.shape()) : Tensor();
  inv_std_ = keep ? Tensor({c}) : Tensor();
  Tensor out(x.shape());
  for (int64_t ci = 0; ci < c; ++ci) {
    const float mu = mean[static_cast<size_t>(ci)];
    const float is = 1.f / std::sqrt(var[static_cast<size_t>(ci)] + eps_);
    if (keep) inv_std_[ci] = is;
    const float g = gamma_.value[ci], b = beta_.value[ci];
    for (int64_t ni = 0; ni < n; ++ni) {
      const float* p = x.data() + (ni * c + ci) * plane;
      float* xh_out =
          keep_xhat ? x_hat_.data() + (ni * c + ci) * plane : nullptr;
      float* o = out.data() + (ni * c + ci) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        const float xh = (p[i] - mu) * is;
        if (xh_out != nullptr) xh_out[i] = xh;
        o[i] = g * xh + b;
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::do_backward(const Tensor& grad_out) {
  const int64_t n = grad_out.dim(0), c = channels_, h = grad_out.dim(2),
                w = grad_out.dim(3);
  const int64_t plane = h * w;
  const auto m = static_cast<float>(n * plane);
  const bool param_grads = kept_param_grads();
  Tensor grad_in(grad_out.shape());

  for (int64_t ci = 0; ci < c; ++ci) {
    // Reductions over the channel: sum(dy), sum(dy * x_hat). Only dgamma,
    // dbeta and the train-mode dx read them.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    if (param_grads || forward_was_training_) {
      for (int64_t ni = 0; ni < n; ++ni) {
        const float* dy = grad_out.data() + (ni * c + ci) * plane;
        const float* xh = x_hat_.data() + (ni * c + ci) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          sum_dy += dy[i];
          sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
        }
      }
    }
    if (param_grads) {
      gamma_.grad[ci] += static_cast<float>(sum_dy_xhat);
      beta_.grad[ci] += static_cast<float>(sum_dy);
    }

    const float g = gamma_.value[ci];
    const float is = inv_std_[ci];
    if (forward_was_training_) {
      const float k1 = static_cast<float>(sum_dy) / m;
      const float k2 = static_cast<float>(sum_dy_xhat) / m;
      for (int64_t ni = 0; ni < n; ++ni) {
        const float* dy = grad_out.data() + (ni * c + ci) * plane;
        const float* xh = x_hat_.data() + (ni * c + ci) * plane;
        float* dx = grad_in.data() + (ni * c + ci) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          dx[i] = g * is * (dy[i] - k1 - xh[i] * k2);
        }
      }
    } else {
      // Inference-mode backward (used for attack gradients): statistics are
      // constants, so dx = dy * gamma * inv_std.
      for (int64_t ni = 0; ni < n; ++ni) {
        const float* dy = grad_out.data() + (ni * c + ci) * plane;
        float* dx = grad_in.data() + (ni * c + ci) * plane;
        for (int64_t i = 0; i < plane; ++i) dx[i] = g * is * dy[i];
      }
    }
  }
  return grad_in;
}

}  // namespace rhw::nn
