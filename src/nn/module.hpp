// Layer abstraction for the from-scratch NN library.
//
// Modules cache whatever forward state their backward pass needs, so the usage
// contract is: forward(batch) immediately followed by backward(grad) on the
// same batch. backward() returns the gradient w.r.t. the module input and
// accumulates parameter gradients into Param::grad. Two thread-local scopes
// narrow what a forward keeps; either way it computes the same output bit for
// bit:
//   * InputGradientScope (attack gradients, entered once in
//     attacks::input_gradient): forward keeps only what dx needs, and the
//     backward that follows, also inside the scope, returns the same dx bit
//     for bit but leaves every Param::grad untouched.
//   * InferenceScope (votes, certification, clean evaluation, serving):
//     forward keeps no backward state at all.
// backward() throws std::logic_error when the module's last forward kept less
// than it needs: after an InferenceScope forward always, and after an
// InputGradientScope forward unless the calling thread is still inside that
// scope. The next forward outside both scopes restores the full backward.
//
// Post-forward hooks model hardware noise on stored activations (hybrid 8T-6T
// SRAM activation memories, DESIGN.md). Hooks mutate the forward output in
// place. A thread-local enable flag with an RAII disable scope implements
// the paper's rule that bit-error noise is *not* present during the gradient
// computation of an attack (Sec. III-A: "we do not consider bit-error noise
// during the gradient calculation step"); thread-locality lets concurrent
// sweep cells gate their own attack passes independently.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tensor.hpp"

namespace rhw::nn {

using rhw::Shape;
using rhw::Tensor;

// A trainable parameter: value plus accumulated gradient.
struct Param {
  std::string name;  // local name within the owning module, e.g. "weight"
  Tensor value;
  Tensor grad;

  Param() = default;
  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.f); }
};

using ActivationHook = std::function<void(Tensor&)>;

// Optional companion to a hook: reseeds the hook's private RNG stream(s).
// Hooks that draw randomness (SRAM bit errors, crossbar read/gradient noise)
// register one so evaluation passes can pin every noise stream to a derived
// seed before running — the repo's per-pass reproducibility contract
// (attacks/evaluate.cpp, README "Reproducibility"). Deterministic hooks
// (quantization, test shims) simply omit it.
using HookSeeder = std::function<void(uint64_t)>;

class Module {
 public:
  virtual ~Module() = default;

  // Non-virtual interface: runs do_forward then applies the post hook (when
  // hooks are globally enabled); backward applies the backward hook to the
  // incoming gradient first (used to model noisy analog gradient reads in
  // HH-mode attacks — crossbar mapper installs these ungated). backward
  // throws std::logic_error when the last forward kept too little state for
  // it (see the usage contract above).
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& grad_out);

  virtual std::vector<Param*> parameters() { return {}; }
  // Name/tensor pairs to persist: parameters plus non-trainable buffers
  // (e.g. BatchNorm running statistics).
  virtual std::vector<std::pair<std::string, Tensor*>> named_state();
  virtual std::vector<Module*> children() { return {}; }
  virtual std::string type_name() const = 0;
  // True for layers whose weights live in crossbars / weight memories
  // (Conv2d, Linear) — targets for the xbar mapper and weight-noise study.
  virtual bool is_weight_layer() const { return false; }

  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  // gated=true (default): the hook is suppressed inside HooksDisabledScope —
  // used for SRAM bit-error noise, which the paper excludes from attack
  // gradients. gated=false: the hook is part of the hardware forward path
  // (crossbar DAC/ADC quantization, read noise) and always applies.
  // A stochastic hook passes a seeder so reseed_noise_streams can reach its
  // RNG; the seeder lives and dies with the hook.
  void set_post_hook(ActivationHook hook, bool gated = true,
                     HookSeeder seeder = {}) {
    post_hook_ = std::move(hook);
    post_hook_gated_ = gated;
    post_seeder_ = std::move(seeder);
  }
  void clear_post_hook() {
    post_hook_ = nullptr;
    post_seeder_ = nullptr;
  }
  bool has_post_hook() const { return static_cast<bool>(post_hook_); }

  // Backward hook: mutates the gradient flowing into this module's backward
  // pass. Same gating and seeder semantics as post hooks.
  void set_backward_hook(ActivationHook hook, bool gated = true,
                         HookSeeder seeder = {}) {
    backward_hook_ = std::move(hook);
    backward_hook_gated_ = gated;
    backward_seeder_ = std::move(seeder);
  }
  void clear_backward_hook() {
    backward_hook_ = nullptr;
    backward_seeder_ = nullptr;
  }
  bool has_backward_hook() const { return static_cast<bool>(backward_hook_); }

  // Reseeds this module's hook RNG streams from `seed` (post hook gets the
  // sub-stream 0, backward hook sub-stream 1). Returns the number of seeders
  // invoked. Callers normally use the tree-walking reseed_noise_streams.
  int reseed_hook_streams(uint64_t seed);

  // -- hook gating (thread-local) ---------------------------------------------
  static bool hooks_enabled();
  // RAII: disables all post hooks in scope (used while computing attack
  // gradients).
  class HooksDisabledScope {
   public:
    HooksDisabledScope();
    ~HooksDisabledScope();
    HooksDisabledScope(const HooksDisabledScope&) = delete;
    HooksDisabledScope& operator=(const HooksDisabledScope&) = delete;

   private:
    bool previous_;
  };

  // -- backward needs (thread-local) ------------------------------------------
  // What the backward after the next forward on this thread needs. Layers
  // read it in do_forward to decide what to cache; the output never depends
  // on it. Scopes only narrow it: kInputGradient inside an
  // InputGradientScope, kNone inside an InferenceScope (also when nested in
  // an InputGradientScope, as smoothing's bulk vote copies during an attack).
  enum class BackwardNeeds { kAll, kInputGradient, kNone };
  static BackwardNeeds backward_needs();
  // True inside an InferenceScope on this thread.
  static bool inference_mode() {
    return backward_needs() == BackwardNeeds::kNone;
  }

  // RAII base of the two scopes below: sets the thread's needs to the
  // narrower of the current value and `needs`, and restores it on exit.
  class NeedsScope {
   public:
    NeedsScope(const NeedsScope&) = delete;
    NeedsScope& operator=(const NeedsScope&) = delete;

   protected:
    explicit NeedsScope(BackwardNeeds needs);
    ~NeedsScope();

   private:
    BackwardNeeds previous_;
  };
  // Forwards in scope keep no backward state. Entered where no backward
  // follows a forward (smoothing votes, clean evaluation, serving), so a
  // replica holds no activation copies between forwards.
  class InferenceScope : public NeedsScope {
   public:
    InferenceScope() : NeedsScope(BackwardNeeds::kNone) {}
  };
  // Forwards in scope keep only what the input gradient needs (no Conv2d or
  // Linear input copy, no eval-BatchNorm x_hat), and backwards in scope
  // compute dx alone: no dW, db, dgamma or dbeta. Entered once, around the
  // forward and backward of attacks::input_gradient.
  class InputGradientScope : public NeedsScope {
   public:
    InputGradientScope() : NeedsScope(BackwardNeeds::kInputGradient) {}
  };

  int64_t num_parameters();

 protected:
  virtual Tensor do_forward(const Tensor& x) = 0;
  virtual Tensor do_backward(const Tensor& grad_out) = 0;

  bool training_ = true;
  ActivationHook post_hook_;
  bool post_hook_gated_ = true;
  HookSeeder post_seeder_;
  ActivationHook backward_hook_;
  bool backward_hook_gated_ = true;
  HookSeeder backward_seeder_;
  // True when the last forward kept the state parameter gradients need;
  // do_backward accumulates into Param::grad only then.
  bool kept_param_grads() const { return kept_ == BackwardNeeds::kAll; }

 private:
  // What the last forward kept for backward (the thread's needs at the time).
  BackwardNeeds kept_ = BackwardNeeds::kAll;
};

using ModulePtr = std::unique_ptr<Module>;

// Depth-first list of all weight-bearing layers (Conv2d, Linear) reachable
// from root, in execution order. Used by the crossbar mapper, QUANOS and the
// weight-noise ablation.
std::vector<Module*> collect_weight_layers(Module& root);

// Reseeds every hook RNG stream in the module tree from `seed`. Each module
// gets a sub-seed derived (splitmix64) from its depth-first position in the
// tree — NOT from its position among hooked modules — so one site's stream
// never depends on which other sites happen to carry hooks. Evaluation
// harnesses call this at the start of each pass (clean vs adversarial) so
// results are independent of what ran before; see attacks/evaluate.cpp.
// Returns the number of seeders invoked.
int reseed_noise_streams(Module& root, uint64_t seed);

}  // namespace rhw::nn
