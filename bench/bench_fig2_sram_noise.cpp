// Fig. 2: surgical noise perturbation mu vs 8T-6T cell ratio r for different
// supply voltages — analytic model cross-checked by Monte-Carlo injection,
// plus the MSB-protection ablation (DESIGN.md §4).
#include <cstdio>

#include "core/rng.hpp"
#include "exp/table_printer.hpp"
#include "sram/bit_error_injector.hpp"

using namespace rhw;

int main() {
  std::printf("=== Fig. 2: surgical noise mu vs 8T-6T ratio r and Vdd ===\n");
  std::printf(
      "mu = expected |perturbation| / full-scale of an 8-bit word stored in\n"
      "hybrid 8T-6T memory (analytic first-order model; 'mc' columns are\n"
      "Monte-Carlo over 200k random words).\n\n");

  const sram::BitErrorModel model;
  const double vdds[] = {0.62, 0.66, 0.70, 0.74, 0.78};

  std::vector<std::string> headers{"r (#8T/#6T)"};
  for (double vdd : vdds) {
    headers.push_back("mu@" + core::fmt(vdd, 2) + "V");
    headers.push_back("mc@" + core::fmt(vdd, 2) + "V");
  }
  exp::TablePrinter table(headers);

  RandomEngine rng(0xF16);
  for (int n6 = 1; n6 <= 8; ++n6) {
    sram::HybridWordConfig word;
    word.num_8t = 8 - n6;
    std::vector<std::string> row{word.ratio_label()};
    for (double vdd : vdds) {
      const double analytic = sram::surgical_noise_mu(word, model, vdd);
      sram::BitErrorInjector inj(word, model, vdd);
      const double measured = inj.measure_mu(200000, rng);
      row.push_back(core::fmt(analytic, 5));
      row.push_back(core::fmt(measured, 5));
    }
    table.add_row(std::move(row));
  }
  table.print();
  table.write_csv(exp::bench_out_dir() + "/fig2_sram_noise.csv");

  // Ablation: significance-driven storage (MSBs in 8T) vs the reversed
  // layout. The protected layout is why hybrid memories yield *surgical*
  // (small, LSB-bounded) noise at all.
  std::printf("\n--- Ablation: MSB-protected vs MSB-exposed layout, "
              "Vdd = 0.68 V ---\n");
  exp::TablePrinter ablation({"r (#8T/#6T)", "mu (MSBs in 8T)",
                              "mu (MSBs in 6T)", "ratio"});
  for (int n6 = 1; n6 <= 7; ++n6) {
    sram::HybridWordConfig protected_word;
    protected_word.num_8t = 8 - n6;
    sram::HybridWordConfig exposed = protected_word;
    exposed.msb_protected = false;
    const double mu_p = sram::surgical_noise_mu(protected_word, model, 0.68);
    const double mu_e = sram::surgical_noise_mu(exposed, model, 0.68);
    ablation.add_row({protected_word.ratio_label(), core::fmt(mu_p, 6),
                      core::fmt(mu_e, 6), core::fmt(mu_e / mu_p, 1)});
  }
  ablation.print();
  ablation.write_csv(exp::bench_out_dir() + "/fig2_ablation_msb.csv");

  std::printf("\nPaper shape check: mu rises as 6T cells replace 8T cells and "
              "as Vdd scales down (compare columns left to right, rows top to "
              "bottom).\n");
  return 0;
}
