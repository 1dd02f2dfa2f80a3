#include "core/engine_registry.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/gemm_simd.hpp"

namespace rhw::core {

namespace {

// Typed option extraction with leftover rejection, shared with the other
// four registries (core/spec.hpp). The "engine" domain string keeps the
// common error-message shape ("engine option mr: bad integer 'abc'").
OptionReader reader_for(const std::string& engine, const EngineOptions& opts) {
  return OptionReader("engine", engine, opts);
}

EnginePtr make_naive(const EngineOptions& opts) {
  auto reader = reader_for("naive", opts);
  reader.finish();
  return std::make_shared<NaiveEngine>();
}

EnginePtr make_simd(const EngineOptions& opts) {
  auto reader = reader_for("simd", opts);
  SimdEngine::Config cfg;
  cfg.mr = static_cast<int64_t>(
      reader.integer("mr", static_cast<uint64_t>(cfg.mr)));
  cfg.nr = static_cast<int64_t>(
      reader.integer("nr", static_cast<uint64_t>(cfg.nr)));
  cfg.threads = static_cast<int64_t>(
      reader.integer("threads", static_cast<uint64_t>(cfg.threads)));
  reader.finish();
  return std::make_shared<SimdEngine>(cfg);  // validates the tile shape
}

}  // namespace

EngineRegistry::EngineRegistry()
    : Registry("engine", "compute engine",
               {{"naive", make_naive}, {"simd", make_simd}}) {}

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

EnginePtr make_engine(const std::string& spec) {
  return EngineRegistry::instance().create(spec);
}

// -- active engine ------------------------------------------------------------

namespace {

// Hot-path dispatch is a single acquire load of this pointer. Every engine
// that has ever been active is pinned in g_pinned (engines are tiny,
// immutable and few), so the raw pointer — including the one an EngineScope
// restores — can never dangle.
std::mutex g_active_mutex;
std::atomic<const Engine*> g_active{nullptr};

std::vector<EnginePtr>& pinned_engines() {
  static std::vector<EnginePtr>* pinned = new std::vector<EnginePtr>();
  return *pinned;  // leaked deliberately: outlives static-destruction order
}

const Engine* pin(EnginePtr engine) {
  std::lock_guard<std::mutex> lock(g_active_mutex);
  pinned_engines().push_back(std::move(engine));
  return pinned_engines().back().get();
}

}  // namespace

const Engine& active_engine() {
  const Engine* engine = g_active.load(std::memory_order_acquire);
  if (engine != nullptr) return *engine;
  // Lazy default: simd with its default tile, built directly rather than
  // through the registry, whose "simd" factory a caller may have replaced.
  // Double-checked so racing first calls agree.
  std::lock_guard<std::mutex> lock(g_active_mutex);
  engine = g_active.load(std::memory_order_relaxed);
  if (engine == nullptr) {
    pinned_engines().push_back(
        std::make_shared<SimdEngine>(SimdEngine::Config{}));
    engine = pinned_engines().back().get();
    g_active.store(engine, std::memory_order_release);
  }
  return *engine;
}

void set_active_engine(EnginePtr engine) {
  if (engine == nullptr) {
    throw std::invalid_argument("set_active_engine: null engine");
  }
  g_active.store(pin(std::move(engine)), std::memory_order_release);
}

void set_active_engine(const std::string& spec) {
  set_active_engine(make_engine(spec));
}

EngineScope::EngineScope(EnginePtr engine)
    : prev_(g_active.load(std::memory_order_acquire)) {
  set_active_engine(std::move(engine));
}

EngineScope::EngineScope(const std::string& spec)
    : EngineScope(make_engine(spec)) {}

EngineScope::~EngineScope() {
  g_active.store(prev_, std::memory_order_release);
}

}  // namespace rhw::core
