#include "attacks/diagnostics.hpp"

#include <cmath>

#include "attacks/evaluate.hpp"
#include "attacks/fgsm.hpp"

namespace rhw::attacks {

namespace {

// Pass tags for the diagnostics' noise-stream reseeds (same contract as
// attacks/evaluate.cpp): every entry point pins the nets' hook RNG streams
// from cfg.seed before its first forward, so reports are pure functions of
// (nets, dataset, config) — independent of what ran on the nets before.
constexpr uint64_t kDiagAttackStream = 0xD1A0;
constexpr uint64_t kDiagCosineStream = 0xD1A1;
constexpr uint64_t kDiagRandomStream = 0xD1A2;

double cosine(const Tensor& a, const Tensor& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  const double denom = std::sqrt(na) * std::sqrt(nb);
  return denom > 0 ? dot / denom : 0.0;
}

}  // namespace

double gradient_agreement(nn::Module& software, nn::Module& hardware,
                          const data::Dataset& ds,
                          const ObfuscationConfig& cfg) {
  const auto subset = ds.head(cfg.sample_count);
  const bool sw_training = software.training();
  const bool hw_training = hardware.training();
  software.set_training(false);
  hardware.set_training(false);
  nn::reseed_noise_streams(hardware,
                           derive_stream_seed(cfg.seed, kDiagCosineStream));
  double cos_acc = 0.0;
  int64_t batches = 0;
  for (int64_t begin = 0; begin < subset.size(); begin += cfg.batch_size) {
    const auto batch = subset.slice(begin, begin + cfg.batch_size);
    const Tensor g_hw = input_gradient(hardware, batch.images, batch.labels);
    const Tensor g_sw = input_gradient(software, batch.images, batch.labels);
    cos_acc += cosine(g_hw, g_sw);
    ++batches;
  }
  software.set_training(sw_training);
  hardware.set_training(hw_training);
  return batches > 0 ? cos_acc / static_cast<double>(batches) : 0.0;
}

double random_perturbation_accuracy(nn::Module& net, const data::Dataset& ds,
                                    const ObfuscationConfig& cfg) {
  const auto subset = ds.head(cfg.sample_count);
  const bool was_training = net.training();
  net.set_training(false);
  nn::reseed_noise_streams(net,
                           derive_stream_seed(cfg.seed, kDiagRandomStream));
  rhw::RandomEngine rng(cfg.seed);
  int64_t correct = 0;
  for (int64_t begin = 0; begin < subset.size(); begin += cfg.batch_size) {
    const auto batch = subset.slice(begin, begin + cfg.batch_size);
    Tensor adv = batch.images;
    for (float& v : adv.span()) {
      v += cfg.epsilon * (rng.gaussian() >= 0.f ? 1.f : -1.f);
    }
    adv.clamp_(0.f, 1.f);
    correct += count_correct(net, adv, batch.labels);
  }
  net.set_training(was_training);
  return subset.size() == 0 ? 0.0
                            : 100.0 * static_cast<double>(correct) /
                                  static_cast<double>(subset.size());
}

ObfuscationReport diagnose_gradient_obfuscation(nn::Module& software,
                                                nn::Module& hardware,
                                                const data::Dataset& ds,
                                                const ObfuscationConfig& cfg) {
  const auto subset = ds.head(cfg.sample_count);
  const bool sw_training = software.training();
  const bool hw_training = hardware.training();
  software.set_training(false);
  hardware.set_training(false);

  ObfuscationReport report;
  nn::reseed_noise_streams(hardware,
                           derive_stream_seed(cfg.seed, kDiagAttackStream));
  int64_t clean = 0, white = 0, transfer = 0;

  FgsmConfig fc;
  fc.epsilon = cfg.epsilon;
  for (int64_t begin = 0; begin < subset.size(); begin += cfg.batch_size) {
    const auto batch = subset.slice(begin, begin + cfg.batch_size);
    clean += count_correct(hardware, batch.images, batch.labels);
    const Tensor adv_white = fgsm(hardware, batch.images, batch.labels, fc);
    white += count_correct(hardware, adv_white, batch.labels);
    const Tensor adv_transfer = fgsm(software, batch.images, batch.labels, fc);
    transfer += count_correct(hardware, adv_transfer, batch.labels);
  }

  software.set_training(sw_training);
  hardware.set_training(hw_training);

  const auto n = static_cast<double>(subset.size());
  if (n > 0) {
    report.clean_acc = 100.0 * static_cast<double>(clean) / n;
    report.white_box_adv_acc = 100.0 * static_cast<double>(white) / n;
    report.transfer_adv_acc = 100.0 * static_cast<double>(transfer) / n;
  }
  report.grad_cosine = gradient_agreement(software, hardware, ds, cfg);
  report.random_adv_acc = random_perturbation_accuracy(hardware, ds, cfg);
  return report;
}

}  // namespace rhw::attacks
