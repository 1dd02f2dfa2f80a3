// rhw_lint's own test suite: each violation class has a fixture under
// tests/lint/fixtures/ (excluded from the build and from rhw_lint's walk)
// and must produce exact diagnostics; the real tree must lint clean.
//
// NOTE: RegisterUnknownKey mutates the process-wide BackendRegistry, so it
// is declared last — gtest runs tests in declaration order by default.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "check_common.hpp"
#include "hw/registry.hpp"

namespace {

using rhw::check::LintDiag;
using rhw::check::LintStats;
using rhw::check::SpecVerdict;

const std::filesystem::path kRoot = RHW_SOURCE_DIR;

std::vector<LintDiag> lint_fixture(const std::string& name, LintStats* stats) {
  const std::filesystem::path path = kRoot / "tests/lint/fixtures" / name;
  EXPECT_TRUE(std::filesystem::exists(path)) << path;
  std::vector<LintDiag> diags;
  LintStats local;
  rhw::check::lint_source(name, rhw::check::read_file(path), diags, local);
  if (stats != nullptr) *stats = local;
  return diags;
}

// (rule, line) pairs, sorted, for order-insensitive exact comparison.
std::vector<std::pair<std::string, size_t>> rule_lines(
    const std::vector<LintDiag>& diags) {
  std::vector<std::pair<std::string, size_t>> out;
  out.reserve(diags.size());
  for (const LintDiag& d : diags) out.emplace_back(d.rule, d.line);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RhwLint, RawRngFixtureFlagsEveryViolation) {
  const auto diags = lint_fixture("raw_rng.cpp", nullptr);
  const std::vector<std::pair<std::string, size_t>> expected = {
      {"rng", 8},   // random_device
      {"rng", 9},   // mt19937
      {"rng", 10},  // srand
      {"rng", 10},  // time(nullptr)
      {"rng", 11},  // rand()
  };
  EXPECT_EQ(rule_lines(diags), expected);
  for (const LintDiag& d : diags) {
    EXPECT_NE(d.what.find("RandomEngine") != std::string::npos ||
                  d.what.find("seed") != std::string::npos,
              false)
        << d.what;
  }
}

TEST(RhwLint, WallclockFixtureFlagsWallClockOnly) {
  const auto diags = lint_fixture("wallclock.cpp", nullptr);
  const std::vector<std::pair<std::string, size_t>> expected = {
      {"wallclock", 6},  // system_clock::now
      {"wallclock", 8},  // gettimeofday
  };
  EXPECT_EQ(rule_lines(diags), expected);
  for (const LintDiag& d : diags) {
    EXPECT_NE(d.what.find("wall-clock"), std::string::npos) << d.what;
  }
}

TEST(RhwLint, EnvFixtureFlagsEveryUnallowedRead) {
  LintStats stats;
  const auto diags = lint_fixture("env_read.cpp", &stats);
  const std::string why =
      "environment read; anything that changes results must be a spec knob "
      "the artifact stamps, so only paths and test hooks may read the "
      "environment, each allow-commented with its reason";
  // Each diagnostic quotes the matched call; spacing does not hide a read.
  const std::vector<std::pair<size_t, std::string>> expected = {
      {5, "`getenv(`: " + why},   // rhw-lint: allow(env) — quoted text
      {6, "`getenv (`: " + why},  // rhw-lint: allow(env) — quoted text
  };
  ASSERT_EQ(diags.size(), expected.size());
  for (size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(diags[i].file, "env_read.cpp");
    EXPECT_EQ(diags[i].line, expected[i].first);
    EXPECT_EQ(diags[i].rule, "env");
    EXPECT_EQ(diags[i].what, expected[i].second);
  }
  EXPECT_EQ(stats.allows_used, 1u);  // line 8, allowed from the line above
}

TEST(RhwLint, StaleSpecFixtureFlagsExactlyTheStaleLiterals) {
  LintStats stats;
  const auto diags = lint_fixture("stale_spec.cpp", &stats);
  const std::vector<std::pair<std::string, size_t>> expected = {
      {"spec", 4},  // pgd:stps=7
      {"spec", 5},  // xbar:rmn=1e5
      {"spec", 6},  // smooth:sigma=abc
      {"spec", 8},  // tiny+corrupt:kind=melt,sev=1
      {"spec", 9},  // sram:vdd=0.6+smooth:sigmaa=0.25
  };
  EXPECT_EQ(rule_lines(diags), expected);
  // 8 literals name registered keys (3 valid + 5 stale); the unknown-key
  // literal is skipped entirely.
  EXPECT_EQ(stats.spec_literals, 8u);
  EXPECT_NE(diags[0].what.find("stps"), std::string::npos) << diags[0].what;
  EXPECT_NE(diags[1].what.find("rmn"), std::string::npos) << diags[1].what;
  EXPECT_NE(diags[2].what.find("abc"), std::string::npos) << diags[2].what;
  EXPECT_NE(diags[3].what.find("melt"), std::string::npos) << diags[3].what;
  EXPECT_NE(diags[4].what.find("sigmaa"), std::string::npos) << diags[4].what;
}

TEST(RhwLint, AllowCommentsSuppressSameLineAndLineAbove) {
  LintStats stats;
  const auto diags = lint_fixture("allowed.cpp", &stats);
  EXPECT_TRUE(diags.empty()) << diags.size() << " diag(s), first: "
                             << (diags.empty() ? "" : diags[0].what);
  EXPECT_EQ(stats.allows_used, 3u);
}

TEST(RhwLint, UnknownAndStaleAllowsAreFindings) {
  const auto diags = lint_fixture("stale_allow.cpp", nullptr);
  const std::vector<std::pair<std::string, size_t>> expected = {
      {"allow", 3},  // allow(frobnicate): unknown rule
      {"allow", 4},  // allow(rng): suppresses nothing
  };
  EXPECT_EQ(rule_lines(diags), expected);
  EXPECT_NE(diags[0].what.find("unknown rule"), std::string::npos);
  EXPECT_NE(diags[1].what.find("suppresses nothing"), std::string::npos);
}

TEST(RhwLint, CleanFixturePasses) {
  LintStats stats;
  const auto diags = lint_fixture("clean.cpp", nullptr);
  EXPECT_TRUE(diags.empty());
  lint_fixture("clean.cpp", &stats);
  EXPECT_EQ(stats.spec_literals, 1u);  // "xbar:size=32"
}

TEST(RhwLint, SpecVerdicts) {
  std::string error;
  EXPECT_EQ(rhw::check::check_spec_span("pgd:steps=7", &error),
            SpecVerdict::kOk);
  EXPECT_EQ(rhw::check::check_spec_span("fig8bc", &error), SpecVerdict::kOk);
  EXPECT_EQ(rhw::check::check_spec_span("simd:mr=6,nr=16", &error),
            SpecVerdict::kOk);
  // rhw-lint: allow(spec) — negative-path probe, stale on purpose
  EXPECT_EQ(rhw::check::check_spec_span("pgd:stps=7", &error),
            SpecVerdict::kStale);
  EXPECT_NE(error.find("stps"), std::string::npos) << error;
  EXPECT_EQ(rhw::check::check_spec_span("just a sentence", &error),
            SpecVerdict::kNotASpec);
  EXPECT_EQ(rhw::check::check_spec_span("unknown_key:opt=1", &error),
            SpecVerdict::kNotASpec);
  // Wrapped specs split by the registries' '+' rule.
  EXPECT_EQ(rhw::check::check_spec_span("tiny+corrupt:kind=fog,sev=3", &error),
            SpecVerdict::kOk);
  EXPECT_EQ(rhw::check::check_spec_span("sram:vdd=0.6+jpeg_quant", &error),
            SpecVerdict::kOk);
  // rhw-lint: allow(spec) — negative-path probe, stale on purpose
  EXPECT_EQ(rhw::check::check_spec_span("ideal+no_such_defense", &error),
            SpecVerdict::kStale);
  EXPECT_NE(error.find("no_such_defense"), std::string::npos) << error;
  // Only datasets and backends take a wrapper.
  EXPECT_EQ(rhw::check::check_spec_span("fgsm+smooth", &error),
            SpecVerdict::kNotASpec);
}

TEST(RhwLint, DocKeyParsers) {
  const std::string headings =
      "## Registry keys\n"
      "### `alpha` — first\n"
      "prose\n"
      "### `beta_2` — second\n"
      "#### `not_a_key_level`\n";
  EXPECT_EQ(rhw::check::doc_heading_keys(headings),
            (std::vector<std::string>{"alpha", "beta_2"}));
  const std::string table =
      "| preset | grid |\n"
      "|---|---|\n"
      "| `fig_x` | something |\n"
      "| `key=value` | override form, skipped |\n"
      "| plain | no code span, skipped |\n";
  EXPECT_EQ(rhw::check::doc_table_keys(table),
            (std::vector<std::string>{"fig_x"}));
}

TEST(RhwLint, ParityFlagsBothDirections) {
  std::vector<rhw::check::Failure> failures;
  rhw::check::check_parity("backend", {"ideal", "ghost"}, {"ideal", "extra"},
                           "docs/BACKENDS.md", failures);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_NE(failures[0].what.find("ghost"), std::string::npos);
  EXPECT_NE(failures[0].what.find("registered but has no key"),
            std::string::npos);
  EXPECT_NE(failures[1].what.find("extra"), std::string::npos);
  EXPECT_NE(failures[1].what.find("not registered"), std::string::npos);
}

// The real tree: zero findings, floors comfortably cleared. This is the
// same walk the tools_rhw_lint ctest performs, run in-process so a lint
// regression points here as well as at the tool.
TEST(RhwLint, CleanTree) {
  std::vector<LintDiag> diags;
  LintStats stats;
  rhw::check::lint_tree(kRoot, diags, stats);
  for (const LintDiag& d : diags) {
    ADD_FAILURE() << d.file << ":" << d.line << " [" << d.rule << "] "
                  << d.what;
  }
  EXPECT_GE(stats.files, 100u);
  EXPECT_GE(stats.spec_literals, 40u);
}

TEST(RhwLint, CleanTreeRegistryDocParity) {
  std::vector<rhw::check::Failure> failures;
  size_t checked = 0;
  rhw::check::check_registry_doc_parity(kRoot, failures, checked);
  for (const auto& f : failures) ADD_FAILURE() << f.file << ": " << f.what;
  EXPECT_EQ(checked, 6u);
}

// Declared last: registers a key into the live BackendRegistry and asserts
// the parity check names it as undocumented.
TEST(RhwLint, RegisterUnknownKey) {
  rhw::hw::BackendRegistry::instance().add(
      "zzz_parity_probe",
      [](const rhw::hw::BackendOptions&) { return rhw::hw::make_backend("ideal"); });
  std::vector<rhw::check::Failure> failures;
  size_t checked = 0;
  rhw::check::check_registry_doc_parity(kRoot, failures, checked);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].what.find("zzz_parity_probe"), std::string::npos);
  EXPECT_NE(failures[0].what.find("no key section"), std::string::npos);
}

}  // namespace
