#include "attacks/evaluate.hpp"

#include <stdexcept>

namespace rhw::attacks {

namespace {

// Attack seed for one batch: (config seed, batch index) mixed through
// splitmix64 (see the seeding contract in evaluate.hpp). The same derivation
// seeds exp::SweepEngine cells.
uint64_t batch_craft_seed(uint64_t cfg_seed, uint64_t batch_index) {
  return derive_stream_seed(derive_stream_seed(cfg_seed, kCraftStream),
                            batch_index);
}

// Builds the configured adversary, with the config's epsilon axis overriding
// whatever the spec embeds. The empty-spec check is explicit so the error
// says what actually went wrong (an empty spec used to fall through parsing
// and could be misread as "run a clean-only pass").
AttackPtr build_attack(const AdvEvalConfig& cfg) {
  if (cfg.attack.empty()) {
    throw std::invalid_argument(
        "AdvEvalConfig::attack is empty — an evaluation needs an attack spec "
        "(e.g. \"fgsm\", \"pgd:steps=7\"); use clean_accuracy for a "
        "clean-only pass");
  }
  AttackPtr attack = make_attack(cfg.attack);
  attack->set_epsilon(cfg.epsilon);
  return attack;
}

}  // namespace

int64_t count_correct(nn::Module& net, const Tensor& x,
                      const std::vector<int64_t>& labels) {
  const nn::Module::InferenceScope inference;  // no backward follows
  const Tensor logits = net.forward(x);
  const auto preds = logits.argmax_rows();
  int64_t correct = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return correct;
}

AdvEvalResult evaluate_attack(nn::Module& grad_net, nn::Module& eval_net,
                              const data::Dataset& ds,
                              const AdvEvalConfig& cfg) {
  // Validate the spec before paying for the clean pass — a typo'd attack
  // must fail fast, not after minutes of clean evaluation.
  (void)build_attack(cfg);
  // Composing the two single-pass entry points is the parity guarantee: each
  // pass pins its own noise streams from cfg.seed, so the clean pass cannot
  // perturb the adversarial numbers (and vice versa).
  AdvEvalResult out;
  out.clean_acc = clean_accuracy(eval_net, ds, cfg.batch_size, cfg.seed);
  out.adv_acc = adversarial_accuracy(grad_net, eval_net, ds, cfg);
  return out;
}

double adversarial_accuracy(nn::Module& grad_net, nn::Module& eval_net,
                            const data::Dataset& ds,
                            const AdvEvalConfig& cfg) {
  const AttackPtr attack = build_attack(cfg);

  const bool grad_was_training = grad_net.training();
  const bool eval_was_training = eval_net.training();
  grad_net.set_training(false);
  eval_net.set_training(false);

  const uint64_t adv_pass = derive_stream_seed(cfg.seed, kAdvPassStream);
  nn::reseed_noise_streams(eval_net, adv_pass);
  if (&grad_net != &eval_net) {
    nn::reseed_noise_streams(grad_net,
                             derive_stream_seed(cfg.seed, kGradPassStream));
  }

  int64_t adv_correct = 0;
  uint64_t batch_index = 0;
  for (int64_t begin = 0; begin < ds.size(); begin += cfg.batch_size) {
    const auto batch = ds.slice(begin, begin + cfg.batch_size);
    AttackContext ctx;
    ctx.grad_net = &grad_net;
    ctx.eval_net = &eval_net;
    ctx.seed = batch_craft_seed(cfg.seed, batch_index);
    const Tensor adv = attack->perturb(ctx, batch.images, batch.labels);
    // Re-pin the measurement streams per batch: crafting may have queried or
    // reseeded eval_net (Square, EOT-PGD in HH mode), and the measured
    // accuracy must be a pure function of (nets, dataset, config) no matter
    // which attack ran.
    nn::reseed_noise_streams(eval_net,
                             derive_stream_seed(adv_pass, batch_index));
    adv_correct += count_correct(eval_net, adv, batch.labels);
    ++batch_index;
  }
  grad_net.set_training(grad_was_training);
  eval_net.set_training(eval_was_training);
  return ds.size() == 0 ? 0.0
                        : 100.0 * static_cast<double>(adv_correct) /
                              static_cast<double>(ds.size());
}

double clean_accuracy(nn::Module& eval_net, const data::Dataset& ds,
                      int64_t batch_size, uint64_t seed) {
  const bool was_training = eval_net.training();
  eval_net.set_training(false);
  nn::reseed_noise_streams(eval_net,
                           derive_stream_seed(seed, kCleanPassStream));
  int64_t correct = 0;
  for (int64_t begin = 0; begin < ds.size(); begin += batch_size) {
    const auto batch = ds.slice(begin, begin + batch_size);
    correct += count_correct(eval_net, batch.images, batch.labels);
  }
  eval_net.set_training(was_training);
  return ds.size() == 0 ? 0.0
                        : 100.0 * static_cast<double>(correct) /
                              static_cast<double>(ds.size());
}

AdvEvalResult evaluate_attack(hw::HardwareBackend& grad_hw,
                              hw::HardwareBackend& eval_hw,
                              const data::Dataset& ds,
                              const AdvEvalConfig& cfg) {
  return evaluate_attack(grad_hw.module(), eval_hw.module(), ds, cfg);
}

double adversarial_accuracy(hw::HardwareBackend& grad_hw,
                            hw::HardwareBackend& eval_hw,
                            const data::Dataset& ds,
                            const AdvEvalConfig& cfg) {
  return adversarial_accuracy(grad_hw.module(), eval_hw.module(), ds, cfg);
}

double clean_accuracy(hw::HardwareBackend& eval_hw, const data::Dataset& ds,
                      int64_t batch_size, uint64_t seed) {
  return clean_accuracy(eval_hw.module(), ds, batch_size, seed);
}

}  // namespace rhw::attacks
