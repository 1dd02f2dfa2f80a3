// Ablation: the efficiency-robustness frontier of hybrid 8T-6T activation
// memories (the paper's motivating trade — DESIGN.md §4).
//
// Sweeps the supply voltage with the Table-I-style selected configuration
// installed and reports, per Vdd: activation-memory energy per inference,
// area, clean accuracy, adversarial accuracy and AL. Also prices the
// crossbar variant per tile size.
#include "bench_common.hpp"
#include "sram/energy_model.hpp"
#include "sram/layer_selector.hpp"
#include "xbar/energy_model.hpp"
#include "xbar/mapper.hpp"

using namespace rhw;

int main() {
  bench::banner("Ablation: energy vs robustness",
                "Hybrid memories buy energy/area with 6T cells and Vdd "
                "scaling; the same knobs set the bit-error noise that buys "
                "robustness. One table, all four axes.");
  bench::Workbench wb = bench::load_workbench("vgg8", "synth-c10");
  models::Model& model = wb.trained.model;

  // A representative hybrid configuration: the first two conv sites at 2/6
  // (aggressive), mirroring the early-layer selections of Tables I/II.
  std::vector<sram::SiteChoice> selection;
  for (size_t s = 0; s < 2; ++s) {
    sram::SiteChoice c;
    c.site_index = s;
    c.site_label = model.sites[s].label;
    c.word.num_8t = 2;
    selection.push_back(c);
  }
  std::vector<std::pair<std::string, sram::HybridWordConfig>> noisy_sites;
  for (const auto& c : selection) noisy_sites.emplace_back(c.site_label, c.word);

  const Tensor sample = wb.eval_set.slice(0, 1).images;
  sram::SramEnergyModel energy_model;

  exp::TablePrinter table({"Vdd", "energy/inf (pJ)", "saving %", "area (mm2)",
                           "clean %", "adv %", "AL"});
  attacks::AdvEvalConfig acfg;
  acfg.epsilon = 0.1f;
  for (double vdd : {1.0, 0.9, 0.8, 0.74, 0.68, 0.62}) {
    sram::apply_selection(model, selection, vdd);
    const auto res = attacks::evaluate_attack(*model.net, *model.net,
                                              wb.eval_set, acfg);
    const auto report =
        sram::activation_memory_report(model, sample, vdd, noisy_sites,
                                       energy_model);
    table.add_row({core::fmt(vdd, 2) + "V",
                   core::fmt(report.total_read_energy_fj / 1e3, 2),
                   core::fmt(report.energy_saving_pct(), 1),
                   core::fmt(report.total_area_um2 / 1e6, 4),
                   core::fmt(res.clean_acc, 2), core::fmt(res.adv_acc, 2),
                   core::fmt(res.adversarial_loss(), 2)});
  }
  sram::clear_all_site_hooks(model);
  table.print();
  table.write_csv(exp::bench_out_dir() + "/ablation_energy_sram.csv");
  std::printf(
      "\nReading guide: scaling Vdd cuts energy quadratically; below ~0.74 V "
      "the 6T\nbit errors kick in, AL starts dropping (robustness), and "
      "eventually clean\naccuracy pays — the frontier the paper's methodology "
      "navigates.\n");

  // Crossbar energy per tile size (same model, mapped).
  std::printf("\n--- Crossbar MVM energy by tile size (VGG8) ---\n");
  xbar::XbarEnergyModel xem;
  exp::TablePrinter xtable({"tile", "tiles", "E/MVM-pass (nJ)",
                            "per-weight (fJ)", "tile area (um2)"});
  for (int64_t size : {16, 32, 64}) {
    models::Model mapped = models::clone_model(model);
    xbar::XbarMapConfig cfg;
    cfg.spec.rows = size;
    cfg.spec.cols = size;
    const auto report = xbar::map_onto_crossbars(*mapped.net, cfg);
    const double total_nj =
        xem.model_mvm_energy_nj(report.num_tiles, cfg.spec, cfg.adc_bits);
    const double per_weight =
        xem.tile_mvm_energy_fj(cfg.spec, cfg.adc_bits) /
        static_cast<double>(size * size);
    xtable.add_row({std::to_string(size) + "x" + std::to_string(size),
                    std::to_string(report.num_tiles), core::fmt(total_nj, 2),
                    core::fmt(per_weight, 2),
                    core::fmt(xem.tile_area_um2(cfg.spec), 0)});
  }
  xtable.print();
  xtable.write_csv(exp::bench_out_dir() + "/ablation_energy_xbar.csv");
  std::printf(
      "\nReading guide: larger tiles amortize ADC/DAC energy per weight — the "
      "paper's\nobservation that bigger crossbars are both more efficient "
      "and, via their\nnon-idealities, more robust.\n");
  return 0;
}
