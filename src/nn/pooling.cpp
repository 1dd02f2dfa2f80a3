#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

namespace rhw::nn {

MaxPool2d::MaxPool2d(int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {}

Tensor MaxPool2d::do_forward(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("MaxPool2d: rank-4 required");
  input_shape_ = x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t oh = (h - kernel_) / stride_ + 1;
  const int64_t ow = (w - kernel_) / stride_ + 1;
  Tensor out({n, c, oh, ow});
  // In an InferenceScope the indices are released, not written.
  const bool keep = !inference_mode();
  if (keep) {
    argmax_.assign(static_cast<size_t>(out.numel()), 0);
  } else {
    std::vector<int64_t>().swap(argmax_);
  }

  const float* in = x.data();
  float* o = out.data();
  int64_t oi = 0;
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const int64_t base = (ni * c + ci) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xo = 0; xo < ow; ++xo, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = -1;
          for (int64_t ky = 0; ky < kernel_; ++ky) {
            const int64_t iy = y * stride_ + ky;
            for (int64_t kx = 0; kx < kernel_; ++kx) {
              const int64_t ix = xo * stride_ + kx;
              const int64_t idx = base + iy * w + ix;
              if (in[idx] > best) {
                best = in[idx];
                best_idx = idx;
              }
            }
          }
          o[oi] = best;
          if (keep) argmax_[static_cast<size_t>(oi)] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::do_backward(const Tensor& grad_out) {
  Tensor grad_in(input_shape_);
  float* gi = grad_in.data();
  const float* go = grad_out.data();
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    gi[argmax_[static_cast<size_t>(i)]] += go[i];
  }
  return grad_in;
}

AvgPool2d::AvgPool2d(int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride) {}

Tensor AvgPool2d::do_forward(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("AvgPool2d: rank-4 required");
  input_shape_ = x.shape();
  const int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  eff_kernel_ = kernel_ == 0 ? h : kernel_;
  eff_stride_ = stride_ == 0 ? eff_kernel_ : stride_;
  if (kernel_ == 0 && h != w) {
    throw std::invalid_argument("AvgPool2d: global pooling needs square maps");
  }
  const int64_t oh = (h - eff_kernel_) / eff_stride_ + 1;
  const int64_t ow = (w - eff_kernel_) / eff_stride_ + 1;
  Tensor out({n, c, oh, ow});
  const float inv = 1.f / static_cast<float>(eff_kernel_ * eff_kernel_);
  const float* in = x.data();
  float* o = out.data();
  int64_t oi = 0;
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const int64_t base = (ni * c + ci) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xo = 0; xo < ow; ++xo, ++oi) {
          double acc = 0.0;
          for (int64_t ky = 0; ky < eff_kernel_; ++ky) {
            const int64_t iy = y * eff_stride_ + ky;
            const float* row = in + base + iy * w + xo * eff_stride_;
            for (int64_t kx = 0; kx < eff_kernel_; ++kx) acc += row[kx];
          }
          o[oi] = static_cast<float>(acc) * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2d::do_backward(const Tensor& grad_out) {
  Tensor grad_in(input_shape_);
  const int64_t n = input_shape_[0], c = input_shape_[1], h = input_shape_[2],
                w = input_shape_[3];
  const int64_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  const float inv = 1.f / static_cast<float>(eff_kernel_ * eff_kernel_);
  float* gi = grad_in.data();
  const float* go = grad_out.data();
  int64_t oi = 0;
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const int64_t base = (ni * c + ci) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xo = 0; xo < ow; ++xo, ++oi) {
          const float g = go[oi] * inv;
          for (int64_t ky = 0; ky < eff_kernel_; ++ky) {
            const int64_t iy = y * eff_stride_ + ky;
            float* row = gi + base + iy * w + xo * eff_stride_;
            for (int64_t kx = 0; kx < eff_kernel_; ++kx) row[kx] += g;
          }
        }
      }
    }
  }
  return grad_in;
}

}  // namespace rhw::nn
