// Ablation: noise-aware retraining (paper Sec. III-A: "Re-training the
// bit-error noise injected DNN with clean images can improve the CA of the
// network"). Reports clean accuracy and AL before/after fine-tuning with the
// noise hooks active.
#include "bench_common.hpp"
#include "sram/retrain.hpp"

using namespace rhw;

int main() {
  bench::banner("Ablation: noise-aware retraining",
                "Fine-tuning with the hybrid-memory noise active recovers "
                "the clean-accuracy deviation the noise causes, while "
                "keeping the robustness benefit.");

  bench::Workbench wb = bench::load_workbench("vgg8", "synth-c10");
  models::Model& model = wb.trained.model;

  // Aggressive configuration so the CA dent (and hence the recovery) is
  // clearly visible.
  std::vector<sram::SiteChoice> selection;
  for (size_t s = 0; s < 3 && s < model.sites.size(); ++s) {
    sram::SiteChoice c;
    c.site_index = s;
    c.site_label = model.sites[s].label;
    c.word.num_8t = 1;  // 7 error-prone bits
    selection.push_back(c);
  }
  const double vdd = 0.64;

  attacks::AdvEvalConfig acfg;
  acfg.epsilon = 0.1f;
  const auto sw = attacks::evaluate_attack(*model.net, *model.net, wb.eval_set,
                                           acfg);

  models::Model noisy = models::clone_model(model);
  sram::apply_selection(noisy, selection, vdd);
  const auto before = attacks::evaluate_attack(*model.net, *noisy.net,
                                               wb.eval_set, acfg);

  sram::RetrainConfig rcfg;
  rcfg.epochs = 2;
  const auto retrain = sram::retrain_with_noise(noisy, wb.data, selection, vdd,
                                                rcfg);
  const auto after = attacks::evaluate_attack(*model.net, *noisy.net,
                                              wb.eval_set, acfg);

  exp::TablePrinter table({"model", "clean %", "adv % (FGSM 0.1)", "AL"});
  table.add_row({"software baseline", core::fmt(sw.clean_acc, 2),
                 core::fmt(sw.adv_acc, 2),
                 core::fmt(sw.adversarial_loss(), 2)});
  table.add_row({"noisy (1/7 @ 0.64V)", core::fmt(before.clean_acc, 2),
                 core::fmt(before.adv_acc, 2),
                 core::fmt(before.adversarial_loss(), 2)});
  table.add_row({"noisy + retrained", core::fmt(after.clean_acc, 2),
                 core::fmt(after.adv_acc, 2),
                 core::fmt(after.adversarial_loss(), 2)});
  table.print();
  table.write_csv(exp::bench_out_dir() + "/ablation_retrain.csv");
  std::printf(
      "\n(retrain measured on its own eval subset: %.2f%% -> %.2f%% clean)\n"
      "Paper shape check: retraining recovers most of the clean-accuracy "
      "deviation\nwithout giving back the AL reduction.\n",
      retrain.clean_acc_before, retrain.clean_acc_after);
  return 0;
}
