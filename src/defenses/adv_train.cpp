#include "defenses/adv_train.hpp"

#include <algorithm>

#include "attacks/registry.hpp"
#include "models/zoo.hpp"
#include "nn/loss.hpp"

namespace rhw::defenses {

namespace {

// Builds the inner adversary from the config. "fgsm" takes no iteration
// knobs; everything else gets the steps knob (the factory rejects attacks
// that do not understand it, naming the token).
attacks::AttackPtr build_inner_attack(const AdvTrainConfig& cfg) {
  std::string spec = cfg.attack;
  if (cfg.attack != "fgsm") {
    spec += ":steps=" + std::to_string(cfg.steps);
  }
  attacks::AttackPtr attack = attacks::make_attack(spec);
  attack->set_epsilon(cfg.epsilon);
  return attack;
}

}  // namespace

AdvTrainResult adversarial_train(nn::Module& net, const data::SynthCifar& data,
                                 const AdvTrainConfig& cfg) {
  const attacks::AttackPtr attack = build_inner_attack(cfg);
  rhw::RandomEngine rng(cfg.seed);
  const uint64_t craft_stream =
      derive_stream_seed(cfg.seed, kAdvTrainCraftStream);
  nn::SGD opt(net.parameters(), cfg.sgd);
  nn::SoftmaxCrossEntropy loss;
  const int decay_epoch = std::max(1, cfg.epochs * 2 / 3);

  AdvTrainResult result;
  uint64_t craft_batch = 0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (epoch == decay_epoch) opt.set_lr(opt.lr() * cfg.lr_decay);
    const auto order = data::shuffled_indices(data.train.size(), rng);
    double epoch_loss = 0.0;
    int64_t batches = 0;
    for (int64_t begin = 0; begin < data.train.size();
         begin += cfg.batch_size) {
      const int64_t end =
          std::min<int64_t>(begin + cfg.batch_size, data.train.size());
      std::vector<int64_t> idx(order.begin() + begin, order.begin() + end);
      auto batch = data.train.gather(idx);

      // Replace the leading adv_fraction of the batch with adversaries
      // crafted against the *current* parameters.
      const auto n_adv = static_cast<int64_t>(
          cfg.adv_fraction * static_cast<float>(batch.images.dim(0)));
      if (n_adv > 0 && cfg.epsilon > 0.f) {
        auto head = batch.slice(0, n_adv);
        attacks::AttackContext ctx;
        ctx.grad_net = &net;
        ctx.eval_net = &net;
        ctx.seed = derive_stream_seed(craft_stream, craft_batch);
        const Tensor adv = attack->perturb(ctx, head.images, head.labels);
        std::copy(adv.data(), adv.data() + adv.numel(), batch.images.data());
      }
      ++craft_batch;

      net.set_training(true);
      opt.zero_grad();
      const Tensor logits = net.forward(batch.images);
      epoch_loss += loss.forward(logits, batch.labels);
      ++batches;
      net.backward(loss.backward());
      opt.step();
    }
    result.final_train_loss = epoch_loss / std::max<int64_t>(1, batches);
  }

  // Clean test accuracy; the model is left in eval mode.
  net.set_training(false);
  result.clean_test_acc =
      models::evaluate_accuracy(net, data.test, cfg.batch_size);
  return result;
}

AdvTrainResult adversarial_train(hw::HardwareBackend& backend,
                                 const data::SynthCifar& data,
                                 const AdvTrainConfig& cfg) {
  return adversarial_train(backend.module(), data, cfg);
}

}  // namespace rhw::defenses
