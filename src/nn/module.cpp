#include "nn/module.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/rng.hpp"

namespace rhw::nn {

namespace {
// Thread-local: exp::SweepEngine evaluates independent cells concurrently,
// and each cell toggles hook gating around its own attack-gradient passes
// (HooksDisabledScope). Hook checks always happen on the thread driving the
// cell's forward/backward — thread-pool workers inside layers only run GEMM
// chunks and never consult this flag — so per-thread gating is exactly the
// per-cell gating the scheduler needs.
thread_local bool g_hooks_enabled = true;
// Thread-local for the same reason: each sweep lane or serving lane decides
// for the forwards it drives itself.
thread_local Module::BackwardNeeds g_needs = Module::BackwardNeeds::kAll;
}  // namespace

Tensor Module::forward(const Tensor& x) {
  kept_ = g_needs;
  Tensor y = do_forward(x);
  if (post_hook_ && (!post_hook_gated_ || hooks_enabled())) post_hook_(y);
  return y;
}

Tensor Module::backward(const Tensor& grad_out) {
  if (kept_ == BackwardNeeds::kNone) {
    throw std::logic_error(type_name() +
                           "::backward: last forward ran in "
                           "nn::Module::InferenceScope and kept no backward "
                           "state");
  }
  if (kept_ == BackwardNeeds::kInputGradient &&
      g_needs != BackwardNeeds::kInputGradient) {
    throw std::logic_error(type_name() +
                           "::backward: last forward ran in "
                           "nn::Module::InputGradientScope and kept no "
                           "parameter-gradient state");
  }
  if (backward_hook_ && (!backward_hook_gated_ || hooks_enabled())) {
    Tensor grad = grad_out;
    backward_hook_(grad);
    return do_backward(grad);
  }
  return do_backward(grad_out);
}

std::vector<std::pair<std::string, Tensor*>> Module::named_state() {
  std::vector<std::pair<std::string, Tensor*>> out;
  for (Param* p : parameters()) out.emplace_back(p->name, &p->value);
  return out;
}

bool Module::hooks_enabled() { return g_hooks_enabled; }

Module::HooksDisabledScope::HooksDisabledScope() : previous_(g_hooks_enabled) {
  g_hooks_enabled = false;
}

Module::HooksDisabledScope::~HooksDisabledScope() {
  g_hooks_enabled = previous_;
}

Module::BackwardNeeds Module::backward_needs() { return g_needs; }

Module::NeedsScope::NeedsScope(BackwardNeeds needs) : previous_(g_needs) {
  g_needs = std::max(g_needs, needs);  // enumerators run from most kept down
}

Module::NeedsScope::~NeedsScope() { g_needs = previous_; }

namespace {
void collect_weight_layers_impl(Module& m, std::vector<Module*>& out) {
  if (m.is_weight_layer()) out.push_back(&m);
  for (Module* child : m.children()) collect_weight_layers_impl(*child, out);
}
}  // namespace

std::vector<Module*> collect_weight_layers(Module& root) {
  std::vector<Module*> out;
  collect_weight_layers_impl(root, out);
  return out;
}

int Module::reseed_hook_streams(uint64_t seed) {
  int reseeded = 0;
  if (post_seeder_) {
    post_seeder_(derive_stream_seed(seed, 0));
    ++reseeded;
  }
  if (backward_seeder_) {
    backward_seeder_(derive_stream_seed(seed, 1));
    ++reseeded;
  }
  return reseeded;
}

namespace {
void reseed_impl(Module& m, uint64_t seed, uint64_t& dfs_index, int& count) {
  count += m.reseed_hook_streams(derive_stream_seed(seed, dfs_index++));
  for (Module* kid : m.children()) reseed_impl(*kid, seed, dfs_index, count);
}
}  // namespace

int reseed_noise_streams(Module& root, uint64_t seed) {
  uint64_t dfs_index = 0;
  int count = 0;
  reseed_impl(root, seed, dfs_index, count);
  return count;
}

int64_t Module::num_parameters() {
  // Containers aggregate child parameters in parameters(), so no recursion
  // over children() here (it would double count).
  int64_t n = 0;
  for (Param* p : parameters()) n += p->value.numel();
  return n;
}

}  // namespace rhw::nn
