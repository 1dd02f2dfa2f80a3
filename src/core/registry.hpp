// The one string-keyed factory map behind every spec seam.
//
// hw::BackendRegistry, attacks::AttackRegistry, defenses::DefenseRegistry,
// core::EngineRegistry and data::DatasetRegistry are thin subclasses of
// Registry<Product>: each supplies its domain, its noun and its built-in
// table, and inherits add/contains/keys/create and the error contract:
//
//   unknown <noun> '<key>'; registered: <key> <key> ...
//   <domain> spec '<spec>': <what the factory threw>
//
// The second form wraps every std::invalid_argument a factory throws (the
// core/spec.hpp OptionReader messages that name the offending option), so
// errors surfacing far from the call site still show the full spec.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.hpp"

namespace rhw::core {

template <typename Product>
class Registry {
 public:
  using Factory = std::function<Product(const SpecOptions&)>;

  // Registers (or replaces) a factory under `key`.
  void add(const std::string& key, Factory factory) {
    factories_[key] = std::move(factory);
  }

  bool contains(const std::string& key) const {
    return factories_.count(key) > 0;
  }

  // Registered keys in sorted order.
  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [key, factory] : factories_) out.push_back(key);
    return out;
  }

  // Parses "<key>[:opt=v,...]" and invokes the factory. Throws
  // std::invalid_argument on an empty spec, an unknown key, an unknown
  // option, or a malformed value — always naming the offending token.
  Product create(const std::string& spec) const {
    const ParsedSpec parsed = parse_spec(domain_, spec);
    const Factory& factory = lookup(parsed.key);
    return labelled(spec, [&] { return factory(parsed.options); });
  }

 protected:
  Registry(std::string domain, std::string noun,
           std::map<std::string, Factory> builtins)
      : domain_(std::move(domain)),
        noun_(std::move(noun)),
        factories_(std::move(builtins)) {}

  // The factory registered under `key`, or the "unknown <noun>" error.
  const Factory& lookup(const std::string& key) const {
    const auto it = factories_.find(key);
    if (it == factories_.end()) {
      std::string what = "unknown " + noun_ + " '" + key + "'; registered:";
      for (const auto& [name, factory] : factories_) what += ' ' + name;
      throw std::invalid_argument(what);
    }
    return it->second;
  }

  // Runs `build`, prefixing any std::invalid_argument it throws with
  // "<domain> spec '<spec>': ".
  template <typename Build>
  Product labelled(const std::string& spec, Build&& build) const {
    try {
      return build();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(domain_ + " spec '" + spec + "': " +
                                  e.what());
    }
  }

 private:
  std::string domain_;  // "backend": parse errors and the spec re-wrap
  std::string noun_;    // "hardware backend": the unknown-key message
  std::map<std::string, Factory> factories_;
};

}  // namespace rhw::core
