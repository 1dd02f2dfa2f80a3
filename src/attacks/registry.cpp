#include "attacks/registry.hpp"

#include <limits>
#include <stdexcept>

#include "attacks/fgsm.hpp"
#include "attacks/mifgsm.hpp"
#include "attacks/pgd.hpp"
#include "attacks/square.hpp"

namespace rhw::attacks {

namespace {

core::OptionReader reader_for(const std::string& attack,
                              const AttackOptions& opts) {
  return core::OptionReader("attack", attack, opts);
}

// Iteration knobs (steps, samples, queries) must be >= 1: a zero would make
// the attack a silent no-op and the sweep would report adv ~= clean numbers
// that measured nothing — the same failure mode the empty-spec check in
// evaluate.cpp exists to prevent.
int positive_int(core::OptionReader& reader, const std::string& attack,
                 const std::string& key, int fallback) {
  const uint64_t v =
      reader.integer(key, static_cast<uint64_t>(fallback));
  if (v == 0) {
    throw std::invalid_argument("attack " + attack + ": option " + key +
                                " must be >= 1 (0 would be a no-op attack)");
  }
  if (v > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("attack " + attack + ": option " + key +
                                " value " + std::to_string(v) +
                                " exceeds the supported range");
  }
  return static_cast<int>(v);
}

// -- adapters: config structs behind the Attack interface ---------------------
// The free-function cores (fgsm/pgd/mifgsm/square) remain directly usable;
// these classes only bind a parsed config and route the per-batch craft seed
// from AttackContext into it.

class FgsmAttack final : public Attack {
 public:
  explicit FgsmAttack(FgsmConfig cfg) : cfg_(cfg) {}
  std::string name() const override { return "FGSM"; }
  float epsilon() const override { return cfg_.epsilon; }
  void set_epsilon(float eps) override { cfg_.epsilon = eps; }
  Tensor perturb(const AttackContext& ctx, const Tensor& x,
                 const std::vector<int64_t>& labels) const override {
    return fgsm(*ctx.grad_net, x, labels, cfg_);
  }

 private:
  FgsmConfig cfg_;
};

class PgdAttack final : public Attack {
 public:
  PgdAttack(PgdConfig cfg, std::string name)
      : cfg_(cfg), name_(std::move(name)) {}
  std::string name() const override { return name_; }
  float epsilon() const override { return cfg_.epsilon; }
  void set_epsilon(float eps) override { cfg_.epsilon = eps; }
  Tensor perturb(const AttackContext& ctx, const Tensor& x,
                 const std::vector<int64_t>& labels) const override {
    PgdConfig cfg = cfg_;
    cfg.seed = ctx.seed;
    return pgd(*ctx.grad_net, x, labels, cfg);
  }

 private:
  PgdConfig cfg_;
  std::string name_;
};

class MiFgsmAttack final : public Attack {
 public:
  explicit MiFgsmAttack(MiFgsmConfig cfg) : cfg_(cfg) {}
  std::string name() const override { return "MI-FGSM"; }
  float epsilon() const override { return cfg_.epsilon; }
  void set_epsilon(float eps) override { cfg_.epsilon = eps; }
  Tensor perturb(const AttackContext& ctx, const Tensor& x,
                 const std::vector<int64_t>& labels) const override {
    return mifgsm(*ctx.grad_net, x, labels, cfg_);
  }

 private:
  MiFgsmConfig cfg_;
};

class SquareAttack final : public Attack {
 public:
  explicit SquareAttack(SquareConfig cfg) : cfg_(cfg) {}
  std::string name() const override { return "Square"; }
  float epsilon() const override { return cfg_.epsilon; }
  void set_epsilon(float eps) override { cfg_.epsilon = eps; }
  bool gradient_free() const override { return true; }
  Tensor perturb(const AttackContext& ctx, const Tensor& x,
                 const std::vector<int64_t>& labels) const override {
    SquareConfig cfg = cfg_;
    cfg.seed = ctx.seed;
    // Black-box: queries go to the deployed model, never the gradient source.
    return square_attack(*ctx.eval_net, x, labels, cfg);
  }

 private:
  SquareConfig cfg_;
};

// -- factories ----------------------------------------------------------------

AttackPtr make_fgsm(const AttackOptions& opts) {
  auto reader = reader_for("fgsm", opts);
  FgsmConfig cfg;
  cfg.epsilon = static_cast<float>(reader.number("eps", cfg.epsilon));
  reader.finish();
  return std::make_unique<FgsmAttack>(cfg);
}

// Shared knob parsing for the PGD family; `eot` switches on the
// stochastic-aware gradient sampling and the `samples` knob.
AttackPtr make_pgd_family(const std::string& key, const AttackOptions& opts,
                          bool eot) {
  auto reader = reader_for(key, opts);
  PgdConfig cfg;
  cfg.epsilon = static_cast<float>(reader.number("eps", cfg.epsilon));
  cfg.steps = positive_int(reader, key, "steps", cfg.steps);
  cfg.alpha = static_cast<float>(reader.number("alpha", cfg.alpha));
  cfg.random_start = reader.integer("rs", cfg.random_start ? 1 : 0) != 0;
  if (eot) {
    cfg.grad_samples = positive_int(reader, key, "samples", 8);
    cfg.noisy_grad = true;
  }
  reader.finish();
  return std::make_unique<PgdAttack>(cfg, eot ? "EOT-PGD" : "PGD");
}

AttackPtr make_mifgsm(const AttackOptions& opts) {
  auto reader = reader_for("mifgsm", opts);
  MiFgsmConfig cfg;
  cfg.epsilon = static_cast<float>(reader.number("eps", cfg.epsilon));
  cfg.steps = positive_int(reader, "mifgsm", "steps", cfg.steps);
  cfg.alpha = static_cast<float>(reader.number("alpha", cfg.alpha));
  cfg.decay = static_cast<float>(reader.number("decay", cfg.decay));
  reader.finish();
  return std::make_unique<MiFgsmAttack>(cfg);
}

AttackPtr make_square(const AttackOptions& opts) {
  auto reader = reader_for("square", opts);
  SquareConfig cfg;
  cfg.epsilon = static_cast<float>(reader.number("eps", cfg.epsilon));
  cfg.queries = positive_int(reader, "square", "queries", cfg.queries);
  cfg.p_init = static_cast<float>(reader.number("p", cfg.p_init));
  reader.finish();
  return std::make_unique<SquareAttack>(cfg);
}

}  // namespace

AttackRegistry::AttackRegistry()
    : Registry("attack", "attack",
               {{"fgsm", make_fgsm},
                {"pgd",
                 [](const AttackOptions& opts) {
                   return make_pgd_family("pgd", opts, /*eot=*/false);
                 }},
                {"eot_pgd",
                 [](const AttackOptions& opts) {
                   return make_pgd_family("eot_pgd", opts, /*eot=*/true);
                 }},
                {"mifgsm", make_mifgsm},
                {"square", make_square}}) {}

AttackRegistry& AttackRegistry::instance() {
  static AttackRegistry registry;
  return registry;
}

AttackPtr make_attack(const std::string& spec) {
  return AttackRegistry::instance().create(spec);
}

std::string attack_display_name(const std::string& spec) {
  return make_attack(spec)->name();
}

}  // namespace rhw::attacks
