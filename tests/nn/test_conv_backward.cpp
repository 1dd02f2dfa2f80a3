// Conv2d backward determinism: dW / db / dx must not depend on how the batch
// is scheduled. A call from the main thread fans out over the global pool; the
// same call from inside a ThreadPool worker runs serially (nested fallback).
// Both must give the same bits, whatever the host's core count, and the dx of
// an input-gradient-only backward (Module::InputGradientScope) must match.
#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"

namespace rhw::nn {
namespace {

struct Grads {
  std::vector<float> dw, db, dx;
};

std::vector<float> values(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

Grads conv_grads(const Tensor& x, const Tensor& grad_out) {
  Conv2d conv(3, 8, 3, 1, 1);
  RandomEngine rng(7);
  kaiming_init(conv, rng);
  (void)conv.forward(x);
  const Tensor dx = conv.backward(grad_out);
  return {values(conv.weight().grad), values(conv.bias().grad), values(dx)};
}

// dx alone, inside an InputGradientScope; dW and db must stay zero.
Grads scoped_conv_grads(const Tensor& x, const Tensor& grad_out) {
  Conv2d conv(3, 8, 3, 1, 1);
  RandomEngine rng(7);
  kaiming_init(conv, rng);
  const Module::InputGradientScope input_gradient_only;
  (void)conv.forward(x);
  const Tensor dx = conv.backward(grad_out);
  return {values(conv.weight().grad), values(conv.bias().grad), values(dx)};
}

TEST(Conv2dBackward, BitIdenticalOnMainThreadAndInsidePoolWorker) {
  RandomEngine rng(11);
  // An odd batch larger than the chunk count, so chunks differ in size.
  const Tensor x = Tensor::randn({13, 3, 10, 10}, rng);
  const Tensor grad_out = Tensor::randn({13, 8, 10, 10}, rng);

  const Grads main_thread = conv_grads(x, grad_out);
  const Grads scoped_main_thread = scoped_conv_grads(x, grad_out);

  ThreadPool pool(1);
  Grads in_worker, scoped_in_worker;
  // Two chunks on a one-worker pool: chunk 1 always runs on the worker.
  pool.parallel_for(2, [&](int64_t begin, int64_t) {
    if (begin == 1) {
      in_worker = conv_grads(x, grad_out);
      scoped_in_worker = scoped_conv_grads(x, grad_out);
    }
  });

  ASSERT_FALSE(in_worker.dw.empty());
  EXPECT_EQ(main_thread.dw, in_worker.dw);
  EXPECT_EQ(main_thread.db, in_worker.db);
  EXPECT_EQ(main_thread.dx, in_worker.dx);

  EXPECT_EQ(main_thread.dx, scoped_main_thread.dx);
  EXPECT_EQ(main_thread.dx, scoped_in_worker.dx);
  for (const Grads& g : {scoped_main_thread, scoped_in_worker}) {
    EXPECT_EQ(g.dw, std::vector<float>(main_thread.dw.size(), 0.f));
    EXPECT_EQ(g.db, std::vector<float>(main_thread.db.size(), 0.f));
  }
}

}  // namespace
}  // namespace rhw::nn
