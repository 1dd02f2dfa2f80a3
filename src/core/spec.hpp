// Shared "<key>[:opt=value,opt=value,...]" spec-string parsing.
//
// Every registry in the repo — hw::BackendRegistry ("xbar:size=32,rmin=10e3"),
// attacks::AttackRegistry ("pgd:steps=7,alpha=0.01"), the defense, engine and
// dataset registries, and exp::ExperimentRegistry's overrides — speaks the
// same grammar and reports errors the same way. This header is the single
// implementation behind them: parse_spec splits the key from its options, and
// OptionReader pulls typed option values while tracking leftovers so
// factories can reject unknown options by name.
//
// Error-reporting contract (asserted by tests/hw/test_registry.cpp and
// tests/attacks/test_attack_registry.cpp): every std::invalid_argument names
// the offending option key and raw value text, e.g.
//
//   backend option rmin: bad number 'abc'
//   attack pgd: unknown option(s): stpes
//
// core::Registry (core/registry.hpp) wraps these with the full spec string
// in create() so errors surfacing far away stay actionable.
#pragma once

#include <map>
#include <string>

namespace rhw::core {

// Option name -> raw value text, as split out of the spec string.
using SpecOptions = std::map<std::string, std::string>;

struct ParsedSpec {
  std::string key;      // text before the first ':' (whole spec when absent)
  SpecOptions options;  // "opt=value" items after it
};

// Splits "<key>[:opt=v,...]". `domain` ("backend", "attack") prefixes error
// messages. Throws std::invalid_argument on an empty spec or on an option
// item that is not of the form key=value.
ParsedSpec parse_spec(const std::string& domain, const std::string& spec);

// Canonical re-rendering of a spec: the key followed by its options in
// sorted order with empty items dropped, so "pgd:steps=7," and
// "pgd:alpha=0,steps=7" vs "pgd:steps=7,alpha=0" compare equal as strings.
// Values stay raw text (no numeric normalization). Throws like parse_spec.
std::string canonical_spec(const std::string& domain, const std::string& spec);

// Pulls and erases typed options from a SpecOptions map so that factories can
// reject whatever is left as unknown (finish()). All extraction errors throw
// std::invalid_argument naming the option key and offending value text.
class OptionReader {
 public:
  // `domain` and `name` label error messages: "<domain> option <key>: ..."
  // and "<domain> <name>: unknown option(s): ...".
  OptionReader(std::string domain, std::string name, SpecOptions opts);

  // Floating-point option; trailing garbage after the number is rejected.
  double number(const std::string& key, double fallback);

  // Integer-typed options (seeds, sizes, counts): full 64-bit range, no
  // silent precision loss through double. Negative values are rejected
  // (stoull would silently wrap them).
  uint64_t integer(const std::string& key, uint64_t fallback);

  // Raw text option (e.g. xbar's circuit-model selector).
  std::string text(const std::string& key, const std::string& fallback);

  // Throws if any options remain unconsumed, naming each leftover key.
  void finish() const;

 private:
  std::string domain_;
  std::string name_;
  SpecOptions opts_;
};

}  // namespace rhw::core
