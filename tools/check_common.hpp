// Shared helpers behind the repo's static checkers: tools/docs_check.cpp
// (markdown), tools/rhw_lint.cpp (source) and tests/lint/test_rhw_lint.cpp.
//
// One implementation of
//   * spec-span validation against the six live registries (hw, attacks,
//     defenses, engines, datasets, experiments) — docs_check and rhw_lint
//     must agree
//     on what a stale spec is, so the logic lives here once;
//   * registry <-> doc parity (every registered key documented, every
//     documented key registered);
//   * the source lint rules (determinism contract, wall-clock reads, spec
//     literals) with the `// rhw-lint: allow(<rule>)` escape hatch.
//
// docs/LINT.md documents the rules and the allow-comment syntax.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

namespace rhw::check {

struct Failure {
  std::string file;
  std::string what;
};

std::string read_file(const std::filesystem::path& path);

// -- spec validation ----------------------------------------------------------

// Strict spec shape: `key` or `key:opt=v(,opt=v)*`, lowercase key, no spaces,
// ellipses or placeholders, optionally followed by one `+wrapper` of the same
// shape (a corrupted dataset or a `hw+defense` arm). Spans that don't match are
// "just words" and are never validated (docs keep exact, parseable examples so
// checks have teeth).
bool looks_like_spec(const std::string& span);

enum class SpecVerdict {
  kNotASpec,  // wrong shape, or key not in any registry: skip silently
  kOk,        // names a registered key and parses/validates
  kStale,     // names a registered key but no longer parses/validates
};

// Classifies `span` against the six registries (backend, attack, defense,
// engine, dataset; experiment presets match bare keys only) and validates it
// through the matching factory; a wrapped span validates as a whole dataset
// spec, or as a backend spec plus a defense spec. On kStale, *error (if
// non-null) carries the factory message. Verdicts are memoized per span: the
// registries are immutable once loaded, and hot keys like "ideal" appear
// hundreds of times.
SpecVerdict check_spec_span(const std::string& span, std::string* error);

// -- registry <-> doc parity --------------------------------------------------

// Keys documented as "### `key` — ..." headings (BACKENDS/ATTACKS/DEFENSES/
// ENGINES style) or as "| `key` | ..." first-cell table rows (EXPERIMENTS
// preset table style).
std::vector<std::string> doc_heading_keys(const std::string& doc_text);
std::vector<std::string> doc_table_keys(const std::string& doc_text);

// Both directions for one registry: every key in `registered` must appear in
// `documented` and vice versa. Appends one Failure per missing key.
void check_parity(const std::string& registry_name,
                  const std::vector<std::string>& registered,
                  const std::vector<std::string>& documented,
                  const std::string& doc_file, std::vector<Failure>& failures);

// All six registries against their docs/ tables under `root`; `checked`
// counts the (registry, doc) pairs examined (a missing doc file is a
// Failure, not a silent skip).
void check_registry_doc_parity(const std::filesystem::path& root,
                               std::vector<Failure>& failures,
                               size_t& checked);

// -- source lint --------------------------------------------------------------

struct LintDiag {
  std::string file;
  size_t line = 0;   // 1-based
  std::string rule;  // "rng" | "wallclock" | "spec" | "allow"
  std::string what;
};

struct LintStats {
  size_t files = 0;
  size_t spec_literals = 0;  // string literals validated against registries
  size_t allows_used = 0;    // allow() comments that suppressed a finding
};

// Lints one source file (already-read text; `display_path` labels
// diagnostics). Rules:
//   rng       — std RNG machinery (std::random_device, rand()/srand(),
//               std::mt19937 et al., time(nullptr) seeds). All randomness
//               must flow through rhw::RandomEngine + derive_stream_seed.
//   wallclock — wall-clock reads (system_clock::now, gettimeofday,
//               clock_gettime(CLOCK_REALTIME)). steady_clock is fine:
//               elapsed-time measurement is monotonic, not wall-clock.
//   spec      — registry spec string literals that no longer parse/validate.
//   allow     — an `// rhw-lint: allow(<rule>)` comment that names an
//               unknown rule or suppresses nothing (stale allows rot).
// An allow comment on the finding's line or the line directly above it
// suppresses the finding. Comments are stripped before pattern matching;
// string literals are scanned (that's where spec literals live).
void lint_source(const std::string& display_path, const std::string& text,
                 std::vector<LintDiag>& diags, LintStats& stats);

// Walks src/ tests/ bench/ examples/ tools/ under `root`, linting every
// .cpp/.hpp/.h file. Directories named "fixtures" are skipped — they hold
// intentionally-violating lint test inputs.
void lint_tree(const std::filesystem::path& root, std::vector<LintDiag>& diags,
               LintStats& stats);

}  // namespace rhw::check
