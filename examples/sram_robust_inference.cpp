// SRAM scenario (paper Sec. III-A): deploy a trained DNN with hybrid 8T-6T
// activation memories at scaled Vdd, pick the noise-injection layers with the
// Fig. 4 methodology, and compare robustness against the software baseline.
//
// The substrate is selected through the hardware-backend registry: the
// "sram" backend runs the methodology on the calibration set handed to
// prepare(), installs the chosen hooks, and prices the memory.
//
//   $ ./examples/sram_robust_inference
#include <cstdio>

#include "attacks/evaluate.hpp"
#include "data/synth_cifar.hpp"
#include "hw/registry.hpp"
#include "hw/sram_backend.hpp"
#include "models/zoo.hpp"
#include "nn/model_io.hpp"

using namespace rhw;

int main() {
  std::printf("== Hybrid 8T-6T SRAM robust inference ==\n\n");

  data::SynthCifarConfig dcfg;
  dcfg.num_classes = 10;
  dcfg.train_per_class = 100;
  dcfg.test_per_class = 25;
  dcfg.image_size = 16;
  const auto dataset = data::make_synth_cifar(dcfg);

  models::Model model = models::build_model("vgg8", 10, 0.125f, 16);
  models::TrainConfig tcfg;
  tcfg.epochs = 4;
  tcfg.batch_size = 50;
  const double clean = models::train_model(model, dataset, tcfg);
  std::printf("software baseline: clean accuracy %.2f%%\n", 100.0 * clean);

  // The software reference: an identically-weighted clone behind the ideal
  // backend, the gradient source for every attack below.
  models::Model reference = models::clone_model(model, 0.125f, 16);
  auto ideal = hw::make_backend("ideal");
  ideal->prepare(reference);

  // Show the knob the methodology turns: noise vs hybrid configuration.
  const sram::BitErrorModel ber_model;
  std::printf("\n6T-cell bit-error rates: %.2e @ 0.80 V, %.2e @ 0.68 V\n",
              ber_model.ber_6t(0.80), ber_model.ber_6t(0.68));

  // Deploy onto the hybrid-SRAM substrate. prepare() runs the Fig. 4
  // layer-selection methodology on the calibration set.
  auto backend = hw::make_backend("sram:vdd=0.68,eval_count=150,eps=0.1");
  backend->prepare(model, &dataset.test);
  const auto* sram_backend = dynamic_cast<const hw::SramBackend*>(
      backend.get());
  const auto& selection = sram_backend->selection_result();

  std::printf("\nmethodology results (FGSM eps=%.2f sweep):\n",
              static_cast<double>(selection.epsilon));
  std::printf("  baseline adv accuracy: %.2f%%\n", selection.baseline_adv_acc);
  std::printf("  shortlisted sites (> +%.0f%%):\n",
              sram_backend->config().selector.improvement_threshold);
  for (const auto& s : selection.shortlisted) {
    std::printf("    layer %-6s  config %-4s  adv acc %.2f%%\n",
                s.site_label.c_str(), s.word.ratio_label().c_str(), s.adv_acc);
  }
  std::printf("  selected combination: ");
  for (const auto& s : selection.selected) {
    std::printf("[%s @ %s] ", s.site_label.c_str(),
                s.word.ratio_label().c_str());
  }
  std::printf("\n  final: adv %.2f%% (vs %.2f%%), clean %.2f%% (dev %.2f)\n",
              selection.final_adv_acc, selection.baseline_adv_acc,
              selection.final_clean_acc,
              selection.baseline_clean_acc - selection.final_clean_acc);
  std::printf("\nmemory pricing: %s\n",
              backend->energy_report().summary().c_str());

  // Deploy: sweep attack strengths, gradients always from the clean
  // reference (SH pairing; SRAM hooks are gated out of gradients anyway).
  std::printf("\nAL vs eps with the selected hybrid configuration:\n");
  std::printf("%-8s %-14s %-14s\n", "eps", "AL baseline", "AL with noise");
  for (float eps : {0.05f, 0.1f, 0.15f, 0.2f, 0.25f, 0.3f}) {
    attacks::AdvEvalConfig cfg;
    cfg.epsilon = eps;
    const auto base = attacks::evaluate_attack(*ideal, *ideal, dataset.test,
                                               cfg);
    const auto noisy = attacks::evaluate_attack(*ideal, *backend, dataset.test,
                                                cfg);
    std::printf("%-8.2f %-14.2f %-14.2f\n", eps, base.adversarial_loss(),
                noisy.adversarial_loss());
  }
  std::printf("\n(lower AL = more robust; the noise column should win)\n");
  return 0;
}
