// String-keyed factory for compute engines — the fifth registry seam, after
// hw::BackendRegistry, attacks::AttackRegistry, defenses::DefenseRegistry and
// exp::ExperimentRegistry. Same core/spec grammar, and the token-naming error
// contract of core::Registry (core/registry.hpp):
//
//   auto engine = core::make_engine("simd:mr=6,nr=16");
//   core::set_active_engine("naive");   // process-wide
//
// Built-in keys and their options (docs/ENGINES.md has defaults, contract
// and measured impact):
//
//   naive     (no options)   reference triple loop, double accumulators
//   simd      mr=<1|2|4|6|8> nr=<8|16> threads=<0|1>   register-tiled
//             micro-kernel GEMM (AVX2/FMA, NEON, portable fallback)
//
// The *active* engine is a process-wide selection that every core::gemm /
// core::gemv / fused-conv call routes through. It defaults to simd with its
// default tile ("simd:mr=6,nr=16,threads=0");
// ExperimentRegistry::run_experiment sets it from the experiment's `engine=`
// knob before any cell runs, and the chosen canonical spec is recorded in
// every rhw-sweep-v4 artifact. Selection is cheap (one atomic
// load per kernel call) and set_active_engine is safe to call from any
// thread, but swapping engines mid-computation gives no ordering guarantee —
// experiments swap once, up front.
#pragma once

#include <string>

#include "core/engine.hpp"
#include "core/registry.hpp"

namespace rhw::core {

using EngineOptions = SpecOptions;

class EngineRegistry : public Registry<EnginePtr> {
 public:
  // Process-wide registry, built-ins registered on first use.
  static EngineRegistry& instance();

 private:
  EngineRegistry();
};

// Shorthand for EngineRegistry::instance().create(spec).
EnginePtr make_engine(const std::string& spec);

// The engine every core::gemm / core::gemv / fused-conv call dispatches to.
// Lazily initialized to simd with its default tile on first use.
const Engine& active_engine();

// Replaces the active engine process-wide. Engines set here stay alive for
// the rest of the process (they are a handful of tiny immutable objects), so
// raw references handed out by active_engine() never dangle.
void set_active_engine(EnginePtr engine);
void set_active_engine(const std::string& spec);

// RAII selection for tests and benchmarks: activates an engine for the
// scope's lifetime and restores the previous selection on exit.
class EngineScope {
 public:
  explicit EngineScope(const std::string& spec);
  explicit EngineScope(EnginePtr engine);
  ~EngineScope();
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;

 private:
  const Engine* prev_;  // may be null: restores the "not yet chosen" state
};

}  // namespace rhw::core
