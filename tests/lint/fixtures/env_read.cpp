// Lint-test fixture: environment reads (an allow-commented one stays legal).
#include <cstdlib>

const char* fixture_env() {
  const char* knob = std::getenv("RHW_SOME_KNOB");
  const char* spaced = getenv ("HOME");
  // rhw-lint: allow(env) — a deployment path, never a result
  const char* path = std::getenv("RHW_SOME_DIR");
  return knob != nullptr ? knob : (spaced != nullptr ? spaced : path);
}
