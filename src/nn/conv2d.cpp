#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/engine_registry.hpp"
#include "core/gemm.hpp"
#include "core/thread_pool.hpp"

namespace rhw::nn {

namespace {
// Sample chunks the weight-gradient sums are split into, whatever the pool
// size (see Conv2d::do_backward). Each chunk holds one dW-sized partial.
constexpr int64_t kGradChunks = 8;
}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad, bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_("weight",
              Tensor({out_channels, in_channels * kernel * kernel})),
      bias_("bias", Tensor({bias ? out_channels : 0})) {}

std::vector<Param*> Conv2d::parameters() {
  std::vector<Param*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

Tensor Conv2d::do_forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2d: bad input shape " + x.shape_str());
  }
  // Only dW reads the input copy: drop it (and whatever an earlier forward
  // left behind) in an InputGradientScope or an InferenceScope.
  input_ = backward_needs() == BackwardNeeds::kAll ? x : Tensor();
  geom_ = ConvGeom{in_c_, x.dim(2), x.dim(3), kernel_, kernel_, stride_, pad_};
  const int64_t n = x.dim(0);

  // Fused batched path: the engine convolves the whole batch in one call
  // (core::Engine::conv2d_forward), bias included — no per-sample small
  // GEMMs, no scalar bias loop.
  Tensor out({n, out_c_, geom_.out_h(), geom_.out_w()});
  core::active_engine().conv2d_forward(
      geom_, n, x.data(), out_c_, weight_.value.data(),
      has_bias_ ? bias_.value.data() : nullptr, out.data());
  return out;
}

Tensor Conv2d::do_backward(const Tensor& grad_out) {
  const int64_t n = grad_out.dim(0);
  const int64_t oh = geom_.out_h(), ow = geom_.out_w();
  const int64_t col_rows = geom_.col_rows(), col_cols = geom_.col_cols();
  const int64_t in_stride = in_c_ * geom_.in_h * geom_.in_w;
  const int64_t out_stride = out_c_ * oh * ow;

  // dx, one sample at a time: dcols = W^T [col_rows, out_c] * gout
  // [out_c, col_cols], scattered back by col2im. Each sample owns its slice
  // of grad_in, so any split over samples gives the same bits.
  Tensor grad_in({n, in_c_, geom_.in_h, geom_.in_w});
  parallel_for(n, [&](int64_t begin, int64_t end) {
    std::vector<float> dcols(static_cast<size_t>(col_rows * col_cols));
    for (int64_t i = begin; i < end; ++i) {
      gemm(true, false, col_rows, col_cols, out_c_, 1.f,
           weight_.value.data(), col_rows, grad_out.data() + i * out_stride,
           col_cols, 0.f, dcols.data(), col_cols);
      col2im(geom_, dcols.data(), grad_in.data() + i * in_stride);
    }
  });
  if (!kept_param_grads()) return grad_in;

  // dW / db partial sums: sample chunk c (samples [c*n/chunks,
  // (c+1)*n/chunks)) owns partial c, and partials are reduced in chunk
  // order. The chunk count depends on the batch alone, so the float sum
  // order, and with it every trained weight, is the same at any pool size
  // and under any scheduling.
  const int64_t chunks = std::min(n, kGradChunks);
  std::vector<Tensor> w_partials;
  std::vector<Tensor> b_partials;
  w_partials.reserve(static_cast<size_t>(chunks));
  b_partials.reserve(static_cast<size_t>(chunks));
  for (int64_t c = 0; c < chunks; ++c) {
    w_partials.emplace_back(weight_.value.shape());
    b_partials.emplace_back(Shape{out_c_});
  }

  parallel_for(chunks, [&](int64_t chunk_begin, int64_t chunk_end) {
    std::vector<float> cols(static_cast<size_t>(col_rows * col_cols));
    for (int64_t c = chunk_begin; c < chunk_end; ++c) {
      Tensor& wp = w_partials[static_cast<size_t>(c)];
      Tensor& bp = b_partials[static_cast<size_t>(c)];
      for (int64_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
        const float* gout = grad_out.data() + i * out_stride;
        // dW += gout [out_c, col_cols] * cols^T [col_cols, col_rows]
        im2col(geom_, input_.data() + i * in_stride, cols.data());
        gemm(false, true, out_c_, col_rows, col_cols, 1.f, gout, col_cols,
             cols.data(), col_cols, 1.f, wp.data(), col_rows);
        if (has_bias_) {
          for (int64_t oc = 0; oc < out_c_; ++oc) {
            const float* plane = gout + oc * oh * ow;
            double acc = 0.0;
            for (int64_t p = 0; p < oh * ow; ++p) acc += plane[p];
            bp[oc] += static_cast<float>(acc);
          }
        }
      }
    }
  });

  for (int64_t c = 0; c < chunks; ++c) {
    weight_.grad.add_(w_partials[static_cast<size_t>(c)]);
    if (has_bias_) bias_.grad.add_(b_partials[static_cast<size_t>(c)]);
  }
  return grad_in;
}

}  // namespace rhw::nn
