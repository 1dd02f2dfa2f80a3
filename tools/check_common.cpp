#include "check_common.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "attacks/registry.hpp"
#include "core/engine_registry.hpp"
#include "data/registry.hpp"
#include "defenses/registry.hpp"
#include "exp/experiment_registry.hpp"
#include "hw/registry.hpp"

namespace fs = std::filesystem;

namespace rhw::check {

std::string read_file(const fs::path& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// -- spec validation ----------------------------------------------------------

bool looks_like_spec(const std::string& span) {
  static const std::regex spec_re(
      R"(^([a-z_][a-z0-9_-]*)(:[A-Za-z0-9_]+=[A-Za-z0-9_.+\-/]+(,[A-Za-z0-9_]+=[A-Za-z0-9_.+\-/]+)*)?$)");
  // The registries' own wrapper rule (data::split_corrupt_spec, the arm split
  // in exp/experiment.cpp): a '+' before a lowercase letter or '_' starts a
  // wrapper, so "1e+5" stays one value.
  const auto [base, wrapper] = rhw::data::split_corrupt_spec(span);
  return std::regex_match(base, spec_re) &&
         (wrapper.empty() || std::regex_match(wrapper, spec_re));
}

SpecVerdict check_spec_span(const std::string& span, std::string* error) {
  if (!looks_like_spec(span)) return SpecVerdict::kNotASpec;

  // Memo: registries are immutable once loaded and hot keys ("ideal",
  // "fgsm") recur hundreds of times across the tree.
  static std::map<std::string, std::pair<SpecVerdict, std::string>> memo;
  if (const auto it = memo.find(span); it != memo.end()) {
    if (error != nullptr) *error = it->second.second;
    return it->second.first;
  }

  // Only two bases take a wrapper: a dataset ("<base>+corrupt:...") and a
  // backend arm ("<hw>+<defense>").
  const auto [base, wrapper] = rhw::data::split_corrupt_spec(span);
  const bool wrapped = !wrapper.empty();
  const std::string key = base.substr(0, base.find(':'));
  const bool is_backend = rhw::hw::BackendRegistry::instance().contains(key);
  const bool is_attack =
      !wrapped && rhw::attacks::AttackRegistry::instance().contains(key);
  const bool is_defense =
      !wrapped && rhw::defenses::DefenseRegistry::instance().contains(key);
  const bool is_engine =
      !wrapped && rhw::core::EngineRegistry::instance().contains(key);
  const bool is_dataset = rhw::data::DatasetRegistry::instance().contains(key);
  // Experiment presets take no colon options; only bare keys match.
  const bool is_experiment =
      span == key && rhw::exp::ExperimentRegistry::instance().contains(key);

  SpecVerdict verdict = SpecVerdict::kNotASpec;
  std::string message;
  if (is_backend || is_attack || is_defense || is_engine || is_dataset ||
      is_experiment) {
    try {
      if (is_backend) {
        (void)rhw::hw::make_backend(base);
        if (wrapped) (void)rhw::defenses::make_defense(wrapper);
      } else if (is_attack) {
        (void)rhw::attacks::make_attack(span);
      } else if (is_defense) {
        (void)rhw::defenses::make_defense(span);
      } else if (is_engine) {
        (void)rhw::core::make_engine(span);
      } else if (is_dataset) {
        // Construction is filesystem-free: dir= paths validate without I/O.
        // The registry splits and checks a wrapper itself.
        (void)rhw::data::make_dataset_provider(span);
      } else {
        rhw::exp::ExperimentRegistry::instance().preset(span).validate();
      }
      verdict = SpecVerdict::kOk;
    } catch (const std::exception& e) {
      verdict = SpecVerdict::kStale;
      message = e.what();
    }
  }
  memo.emplace(span, std::make_pair(verdict, message));
  if (error != nullptr) *error = message;
  return verdict;
}

// -- registry <-> doc parity --------------------------------------------------

std::vector<std::string> doc_heading_keys(const std::string& doc_text) {
  // "### `key` — ..." section headings (the registry-key convention in
  // docs/BACKENDS.md, ATTACKS.md, DEFENSES.md, ENGINES.md and DATASETS.md;
  // hyphens cover the legacy dataset keys "synth-c10"/"synth-c100").
  static const std::regex heading_re(
      R"((?:^|\n)###\s+`([a-z_][a-z0-9_-]*)`)");
  std::vector<std::string> keys;
  for (auto it = std::sregex_iterator(doc_text.begin(), doc_text.end(),
                                      heading_re);
       it != std::sregex_iterator(); ++it) {
    keys.push_back((*it)[1].str());
  }
  return keys;
}

std::vector<std::string> doc_table_keys(const std::string& doc_text) {
  // "| `key` | ..." first-cell table rows (the preset table in
  // docs/EXPERIMENTS.md). Cells carrying options or override syntax
  // (`=`, `+`, `:`) don't match the bare-key grammar and are skipped.
  static const std::regex row_re(R"((?:^|\n)\|\s*`([a-z_][a-z0-9_]*)`\s*\|)");
  std::vector<std::string> keys;
  for (auto it = std::sregex_iterator(doc_text.begin(), doc_text.end(),
                                      row_re);
       it != std::sregex_iterator(); ++it) {
    keys.push_back((*it)[1].str());
  }
  return keys;
}

void check_parity(const std::string& registry_name,
                  const std::vector<std::string>& registered,
                  const std::vector<std::string>& documented,
                  const std::string& doc_file, std::vector<Failure>& failures) {
  const std::set<std::string> reg(registered.begin(), registered.end());
  const std::set<std::string> doc(documented.begin(), documented.end());
  for (const std::string& key : reg) {
    if (doc.count(key) == 0) {
      failures.push_back({doc_file, registry_name + " key `" + key +
                                        "` is registered but has no key "
                                        "section/row in " +
                                        doc_file});
    }
  }
  for (const std::string& key : doc) {
    if (reg.count(key) == 0) {
      failures.push_back({doc_file, registry_name + " key `" + key +
                                        "` is documented in " + doc_file +
                                        " but not registered"});
    }
  }
}

void check_registry_doc_parity(const fs::path& root,
                               std::vector<Failure>& failures,
                               size_t& checked) {
  // Preset validation registers runtime backend keys (fig5's
  // `sram_selected` / fig5w's `sram_weight_noise` stand-ins). Force it for
  // every preset up front so the key set — and therefore this check — does
  // not depend on which spec literals happened to be validated earlier.
  // Presets that fail to validate are someone else's failure (rhw_run
  // --list, docs_check); parity only needs the registration side effect.
  for (const std::string& key :
       rhw::exp::ExperimentRegistry::instance().keys()) {
    try {
      rhw::exp::ExperimentRegistry::instance().preset(key).validate();
    } catch (const std::exception&) {
    }
  }

  struct Pair {
    std::string name;
    std::vector<std::string> keys;
    const char* doc;
    bool table;  // false: heading style
  };
  const Pair pairs[] = {
      {"backend", rhw::hw::BackendRegistry::instance().keys(),
       "docs/BACKENDS.md", false},
      {"attack", rhw::attacks::AttackRegistry::instance().keys(),
       "docs/ATTACKS.md", false},
      {"defense", rhw::defenses::DefenseRegistry::instance().keys(),
       "docs/DEFENSES.md", false},
      {"engine", rhw::core::EngineRegistry::instance().keys(),
       "docs/ENGINES.md", false},
      {"dataset", rhw::data::DatasetRegistry::instance().keys(),
       "docs/DATASETS.md", false},
      {"experiment", rhw::exp::ExperimentRegistry::instance().keys(),
       "docs/EXPERIMENTS.md", true},
  };
  for (const Pair& p : pairs) {
    const fs::path doc_path = root / p.doc;
    if (!fs::exists(doc_path)) {
      failures.push_back({p.doc, p.name + " registry has no doc file " +
                                     p.doc + " to check parity against"});
      continue;
    }
    ++checked;
    const std::string text = read_file(doc_path);
    check_parity(p.name, p.keys,
                 p.table ? doc_table_keys(text) : doc_heading_keys(text),
                 p.doc, failures);
  }
}

// -- source lint --------------------------------------------------------------

namespace {

// Blanks comments (preserving newlines) so rule patterns never fire on
// prose; string and char literals survive — spec literals live there.
// Handles //, /* */, '...', "..." with escapes, and R"delim(...)delim".
std::string strip_comments(const std::string& text) {
  std::string out = text;
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    const char c = text[i];
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') out[i++] = ' ';
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      out[i] = out[i + 1] = ' ';
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] != '\n') out[i] = ' ';
        ++i;
      }
      if (i + 1 < n) {
        out[i] = out[i + 1] = ' ';
        i += 2;
      } else {
        i = n;
      }
    } else if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      // Raw string: R"delim( ... )delim"
      size_t p = i + 2;
      std::string delim;
      while (p < n && text[p] != '(') delim += text[p++];
      const std::string close = ")" + delim + "\"";
      const size_t end = text.find(close, p);
      i = end == std::string::npos ? n : end + close.size();
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\') ++i;
        ++i;
      }
      if (i < n) ++i;
    } else {
      ++i;
    }
  }
  return out;
}

size_t line_of(const std::string& text, size_t pos) {
  return 1 + static_cast<size_t>(
                 std::count(text.begin(), text.begin() + pos, '\n'));
}

struct AllowEntry {
  std::string rule;
  size_t line;
  bool used = false;
};

// Parses `// rhw-lint: allow(rule[, rule...])` comments out of the raw
// lines. Lines that merely mention the marker without a literal "allow("
// following it (e.g. this scanner's own pattern strings) are ignored;
// unknown rule names become "allow" diagnostics at the caller.
std::vector<AllowEntry> scan_allows(const std::string& text) {
  std::vector<AllowEntry> allows;
  static const std::regex allow_re(
      R"(rhw-lint:\s*allow\(\s*([a-z_]+(?:\s*,\s*[a-z_]+)*)\s*\))");
  std::istringstream is(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::smatch m;
    if (!std::regex_search(line, m, allow_re)) continue;
    std::string rules = m[1].str();
    std::replace(rules.begin(), rules.end(), ',', ' ');
    std::istringstream rs(rules);
    std::string rule;
    while (rs >> rule) allows.push_back({rule, lineno, false});
  }
  return allows;
}

struct Pattern {
  const char* rule;
  std::regex re;
  const char* why;
};

// The determinism / wall-clock / environment pattern tables. Anchored on "std::" or a
// word boundary so the pattern sources themselves (which contain the bare
// token preceded by escapes) never self-match when this file is linted.
const std::vector<Pattern>& patterns() {
  static const std::vector<Pattern> pats = {
      {"rng", std::regex(R"(std\s*::\s*random_device)"),
       "nondeterministic seed source; derive seeds via "
       "rhw::derive_stream_seed from the experiment seed"},
      {"rng", std::regex(R"(\bsrand\s*\()"),
       "global C RNG; use a caller-owned rhw::RandomEngine"},
      {"rng", std::regex(R"(\brand\s*\(\s*\))"),
       "global C RNG; use a caller-owned rhw::RandomEngine"},
      {"rng",
       std::regex(
           R"(std\s*::\s*(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux\w+|knuth_b))"),
       "std RNG engine; all repo randomness flows through rhw::RandomEngine "
       "so streams reseed/fork deterministically"},
      {"rng", std::regex(R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))"),
       "wall-clock seed; experiments must be bit-reproducible from their "
       "recorded seed"},
      {"wallclock", std::regex(R"(system_clock\s*::\s*now)"),
       "wall-clock read; use steady_clock for elapsed time so artifacts "
       "don't depend on the host clock"},
      {"wallclock", std::regex(R"(\bgettimeofday\s*\()"),
       "wall-clock read; use steady_clock for elapsed time"},
      {"wallclock", std::regex(R"(clock_gettime\s*\(\s*CLOCK_REALTIME)"),
       "wall-clock read; use steady_clock (CLOCK_MONOTONIC) for elapsed "
       "time"},
      {"env", std::regex(R"(\bgetenv\s*\()"),
       "environment read; anything that changes results must be a spec knob "
       "the artifact stamps, so only paths and test hooks may read the "
       "environment, each allow-commented with its reason"},
  };
  return pats;
}

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {"rng", "wallclock", "spec",
                                              "env"};
  return rules;
}

}  // namespace

void lint_source(const std::string& display_path, const std::string& text,
                 std::vector<LintDiag>& diags, LintStats& stats) {
  ++stats.files;
  std::vector<AllowEntry> allows = scan_allows(text);
  for (const AllowEntry& a : allows) {
    if (known_rules().count(a.rule) == 0) {
      diags.push_back({display_path, a.line, "allow",
                       "allow(" + a.rule + ") names an unknown rule; known: "
                       "rng, wallclock, spec, env"});
    }
  }
  // An allow on the finding's line or the line directly above suppresses it.
  // Same-line entries take precedence over line-above ones so stacked
  // allows on consecutive lines each cover their own line's finding.
  auto consume_allow = [&allows](const std::string& rule, size_t line) {
    for (AllowEntry& a : allows) {
      if (a.rule == rule && a.line == line) {
        a.used = true;
        return true;
      }
    }
    for (AllowEntry& a : allows) {
      if (a.rule == rule && a.line + 1 == line) {
        a.used = true;
        return true;
      }
    }
    return false;
  };

  const std::string code = strip_comments(text);
  for (const Pattern& p : patterns()) {
    for (auto it = std::sregex_iterator(code.begin(), code.end(), p.re);
         it != std::sregex_iterator(); ++it) {
      const size_t line = line_of(code, static_cast<size_t>(it->position()));
      if (consume_allow(p.rule, line)) {
        ++stats.allows_used;
        continue;
      }
      diags.push_back({display_path, line, p.rule,
                       "`" + it->str() + "`: " + p.why});
    }
  }

  // Spec literals: every double-quoted string with the strict spec shape
  // whose key names a registered key must parse/validate — the docs-only
  // guarantee (docs_check) extended to every test, bench and example.
  static const std::regex string_re(R"re("((?:[^"\\\n]|\\.)*)")re");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), string_re);
       it != std::sregex_iterator(); ++it) {
    const std::string literal = (*it)[1].str();
    std::string error;
    const SpecVerdict verdict = check_spec_span(literal, &error);
    if (verdict == SpecVerdict::kNotASpec) continue;
    ++stats.spec_literals;
    if (verdict == SpecVerdict::kOk) continue;
    const size_t line = line_of(code, static_cast<size_t>(it->position()));
    if (consume_allow("spec", line)) {
      ++stats.allows_used;
      continue;
    }
    diags.push_back({display_path, line, "spec",
                     "stale spec \"" + literal + "\": " + error});
  }

  for (const AllowEntry& a : allows) {
    if (!a.used && known_rules().count(a.rule) > 0) {
      diags.push_back({display_path, a.line, "allow",
                       "allow(" + a.rule + ") suppresses nothing; stale "
                       "allows rot — delete it"});
    }
  }
}

void lint_tree(const fs::path& root, std::vector<LintDiag>& diags,
               LintStats& stats) {
  static const std::set<std::string> exts = {".cpp", ".hpp", ".h"};
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();  // lint-test inputs violate on purpose
        continue;
      }
      if (it->is_regular_file() &&
          exts.count(it->path().extension().string()) > 0) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    lint_source(fs::relative(file, root).string(), read_file(file), diags,
                stats);
  }
}

}  // namespace rhw::check
