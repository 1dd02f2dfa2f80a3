// Built-in experiment presets: every figure, table and grid-building example
// of the reproduction as a named, overridable ExperimentSpec — plus the
// preset-specific presentation (paper-style tables, map reports, shape-check
// text) as ExperimentPrograms. Grid assembly lives exclusively in the specs;
// programs only set up runtime-registered backend keys (the Fig. 4
// methodology's "sram_selected") and render results.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/diagnostics.hpp"
#include "core/stats.hpp"
#include "exp/ascii_plot.hpp"
#include "exp/experiment_registry.hpp"
#include "exp/table_printer.hpp"
#include "hw/sram_backend.hpp"
#include "hw/xbar_backend.hpp"
#include "sram/layer_selector.hpp"
#include "sram/noise_hook.hpp"

namespace rhw::exp {

namespace {

// -- Fig. 4 methodology plumbing (shared by fig5 / table1 / table2) -----------

std::string selection_cache_path(const std::string& arch,
                                 const std::string& dataset) {
  return bench_out_dir() + "/selection_" + arch + "_" + dataset + ".txt";
}

// Registers (or replaces) the "sram_selected" backend key: an SramBackend
// carrying an explicit precomputed site selection, so grids re-evaluating a
// methodology result reference it by spec string like any other hardware.
// The only knob is vdd; the selection itself is baked into the factory.
void register_selected_sram_backend(
    const std::vector<sram::SiteChoice>& selected) {
  hw::BackendRegistry::instance().add(
      "sram_selected",
      [selected](const hw::BackendOptions& opts) -> hw::BackendPtr {
        auto reader = core::OptionReader("backend", "sram_selected", opts);
        hw::SramBackendConfig cfg;
        cfg.vdd = reader.number("vdd", 0.68);
        cfg.selection = selected;
        reader.finish();
        return std::make_unique<hw::SramBackend>(std::move(cfg));
      });
}

// The weight-noise ablation as a proper backend: prepare() corrupts the
// weight layers feeding the selected sites, as if the weight memories were
// read through erroneous 6T cells. Registered under "sram_weight_noise" so
// grids reference it by spec string; replicate() returns a fresh copy whose
// (deterministic) prepare reproduces the corruption bit-for-bit.
class WeightNoiseBackend final : public hw::HardwareBackend {
 public:
  explicit WeightNoiseBackend(std::vector<sram::SiteChoice> selected)
      : selected_(std::move(selected)) {}

  std::string name() const override { return "sram_weight_noise"; }

  hw::BackendPtr replicate() const override {
    return std::make_unique<WeightNoiseBackend>(selected_);
  }

 protected:
  void do_prepare(nn::Module& net, const std::vector<models::ActivationSite>&,
                  const data::Dataset*) override {
    // The validation-time stand-in registers this key with an empty
    // selection so `rhw_run --list`/docs_check can resolve the fig5w spec;
    // actually *running* it without the methodology's selection would be a
    // silent no-op arm, so fail loudly instead.
    if (selected_.empty()) {
      throw std::invalid_argument(
          "backend sram_weight_noise: no site selection registered — the "
          "fig5w preset's setup bakes one in; this key is not usable from "
          "other experiments");
    }
    auto layers = nn::collect_weight_layers(net);
    for (size_t k = 0; k < selected_.size() && k < layers.size(); ++k) {
      sram::SramNoiseConfig nc;
      nc.word = selected_[k].word;
      nc.vdd = 0.68;
      sram::corrupt_layer_weights(*layers[k], nc);
    }
  }

 private:
  std::vector<sram::SiteChoice> selected_;
};

void register_weight_noise_backend(
    const std::vector<sram::SiteChoice>& selected) {
  hw::BackendRegistry::instance().add(
      "sram_weight_noise",
      [selected](const hw::BackendOptions& opts) -> hw::BackendPtr {
        core::OptionReader("backend", "sram_weight_noise", opts).finish();
        return std::make_unique<WeightNoiseBackend>(selected);
      });
}

// Runs (or loads from cache) the methodology for one panel.
sram::SelectionResult run_methodology(PanelContext& pc) {
  const std::string cache =
      selection_cache_path(pc.arch.arch, pc.dataset.tag);
  sram::SelectionResult result;
  if (sram::load_selection(cache, &result) &&
      result.per_site_best.size() == pc.model.sites.size()) {
    std::printf("[rhw_run] loaded cached selection from %s\n", cache.c_str());
    return result;
  }
  sram::SelectorConfig cfg;
  cfg.eval_count = 192;
  // Probe strength where the baseline attack is meaningful: the 100-class
  // models sit much closer to their decision boundaries, so the sweep uses a
  // gentler epsilon there (at 0.1 their baseline adversarial accuracy is
  // already ~0 and no configuration can clear the +5% bar).
  cfg.epsilon = pc.model.num_classes > 50 ? 0.04f : 0.1f;
  result = sram::select_layers(pc.model, pc.data.test, cfg);
  sram::save_selection(cache, result);
  return result;
}

void print_map_report(SweepEngine& engine, const std::string& key,
                      const std::string& model_name) {
  const auto* xb = dynamic_cast<const hw::XbarBackend*>(engine.backend(key));
  if (xb == nullptr) return;
  const auto& report = xb->map_report();
  const auto& spec = xb->config().map.spec;
  std::printf(
      "[rhw_run] mapped %s onto %lldx%lld crossbars (RMIN=%.0f kOhm): %lld "
      "tiles, mean|dW|/max|W| = %.4f\n",
      model_name.c_str(), static_cast<long long>(spec.rows),
      static_cast<long long>(spec.cols), spec.r_min / 1e3,
      static_cast<long long>(report.num_tiles),
      report.mean_rel_weight_error);
}

// -- shared spec fragments ----------------------------------------------------

ExperimentBackend arm(std::string key, std::string hw,
                      std::string defense = "", bool calibrate = false) {
  return {std::move(key), std::move(hw), std::move(defense), calibrate};
}

const char* kTinyTrained = "tiny:classes=10,train=100,test=25,size=16";
const char* kSmallVgg8 = "vgg8:width=0.125,in=16";

// -- fig5 / fig5w -------------------------------------------------------------

ExperimentSpec fig5_spec(bool weights) {
  ExperimentSpec s;
  s.tag = weights ? "fig5w" : "fig5";
  s.title = "Fig. 5: AL vs FGSM epsilon with hybrid-memory bit-error noise";
  s.subtitle =
      weights ? "(ablation: noise injected into weight memories instead of "
                "activation memories)"
              : "AL = clean - adversarial accuracy (%); lower is more robust. "
                "Baseline = software model, BitErrorNoise = selected layers "
                "at Vdd 0.68 V.";
  for (const char* arch : {"vgg19", "resnet18"}) {
    for (const char* dataset : {"synth-c10", "synth-c100"}) {
      s.panels.push_back({arch, dataset});
    }
  }
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(
      arm("noisy", weights ? "sram_weight_noise" : "sram_selected:vdd=0.68"));
  // Attack gradients come from the clean model (noise never in gradients).
  s.modes.push_back({"Baseline", "ideal", "ideal"});
  s.modes.push_back({"BitErrorNoise", "ideal", "noisy"});
  s.attacks.push_back({"fgsm", fgsm_epsilons()});
  return s;
}

class Fig5Program final : public ExperimentProgram {
 public:
  explicit Fig5Program(bool weights)
      : weights_(weights),
        table_({"network", "dataset", "eps", "AL baseline", "AL bit-error",
                "AL reduction", "clean (noisy)", "adv (noisy)"}) {}

  void setup(PanelContext& pc) override {
    const auto selection = run_methodology(pc);
    if (weights_) {
      register_weight_noise_backend(selection.selected);
    } else {
      register_selected_sram_backend(selection.selected);
    }
  }

  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    const auto base_curve = result.curve("Baseline", "fgsm");
    const auto noisy_curve = result.curve("BitErrorNoise", "fgsm");
    std::vector<Series> panel(2);
    panel[0].label = "Baseline";
    panel[1].label = "BitErrorNoise";
    for (size_t i = 0; i < base_curve.points.size(); ++i) {
      const auto& b = base_curve.points[i];
      const auto& n = noisy_curve.points[i];
      table_.add_row({pc.arch.arch, pc.dataset.tag, core::fmt(b.epsilon, 2),
                      core::fmt(b.al, 2), core::fmt(n.al, 2),
                      core::fmt(b.al - n.al, 2),
                      core::fmt(n.clean_acc, 2), core::fmt(n.adv_acc, 2)});
      panel[0].x.push_back(b.epsilon);
      panel[0].y.push_back(b.al);
      panel[1].x.push_back(n.epsilon);
      panel[1].y.push_back(n.al);
    }
    PlotOptions opt;
    opt.title = pc.arch.arch + " / " + pc.dataset.tag + " - FGSM (AL vs eps)";
    opt.y_min = 0;
    opt.y_max = 100;
    std::printf("%s\n", render_ascii_plot(panel, opt).c_str());
  }

  void finish(RunContext&) override {
    table_.print();
    table_.write_csv(bench_out_dir() + (weights_ ? "/fig5_al_curves_weights.csv"
                                                 : "/fig5_al_curves.csv"));
    std::printf(
        "\nPaper shape check: the bit-error column should sit below the "
        "baseline column\n(positive 'AL reduction'), with VGG19 showing lower "
        "overall AL than ResNet18.\n");
  }

 private:
  bool weights_;
  TablePrinter table_;
};

// -- table1 / table2 ----------------------------------------------------------

ExperimentSpec config_table_spec(const std::string& arch,
                                 const std::string& table_name) {
  ExperimentSpec s;
  s.tag = table_name;
  s.title = table_name;
  s.subtitle =
      "Layer-wise activation-memory configurations (8T/6T ratios) chosen by "
      "the Fig. 4 methodology at Vdd = 0.68 V; 'H' = homogeneous (no "
      "bit-error noise injected). CA = clean accuracy of the noise-injected "
      "DNN / deviation from the software baseline.";
  s.panels.push_back({arch, "synth-c10"});
  s.panels.push_back({arch, "synth-c100"});
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(arm("noisy", "sram_selected:vdd=0.68"));
  s.modes.push_back({"Baseline", "ideal", "ideal"});
  s.modes.push_back({"BitErrorNoise", "ideal", "noisy"});
  // Probe epsilons for both dataset difficulties; the report picks the
  // meaningful one per panel (0.04 for 100-class models, 0.1 otherwise).
  // Both panels sweep both probes — two extra cells per panel, negligible
  // next to the methodology run, and it keeps the grid declarative instead
  // of per-panel.
  s.attacks.push_back({"fgsm", {0.1f, 0.04f}});
  return s;
}

class ConfigTableProgram final : public ExperimentProgram {
 public:
  explicit ConfigTableProgram(std::string table_name)
      : table_name_(std::move(table_name)) {}

  void setup(PanelContext& pc) override {
    selection_ = run_methodology(pc);
    register_selected_sram_backend(selection_.selected);

    std::vector<std::string> headers{"dataset"};
    std::vector<std::string> row{pc.dataset.tag};
    for (const auto& site : pc.model.sites) {
      headers.push_back(site.label);
      std::string cell = "H";
      for (const auto& sel : selection_.selected) {
        if (sel.site_label == site.label) cell = sel.word.ratio_label();
      }
      row.push_back(cell);
    }
    headers.push_back("VDD");
    row.push_back("0.68V");
    headers.push_back("CA/Deviation");
    row.push_back(core::fmt(selection_.final_clean_acc, 2) + " / " +
                  core::fmt(selection_.baseline_clean_acc -
                          selection_.final_clean_acc,
                      2));
    TablePrinter table(headers);
    table.add_row(row);
    table.print();
    table.write_csv(bench_out_dir() + "/" + table_name_ + "_" +
                    pc.dataset.tag + ".csv");
    std::printf(
        "  baseline: clean %.2f%%  adv(FGSM eps=%.2f) %.2f%%  |  with noise: "
        "adv %.2f%%  (selected %zu sites out of %zu; shortlist %zu)\n\n",
        selection_.baseline_clean_acc,
        pc.model.num_classes > 50 ? 0.04 : 0.1, selection_.baseline_adv_acc,
        selection_.final_adv_acc, selection_.selected.size(),
        pc.model.sites.size(), selection_.shortlisted.size());
  }

  void report(PanelContext& pc) override {
    // Sweep-engine re-check of the selected configuration at the probe
    // epsilon (gentler for 100-class models).
    const SweepResult& result = *pc.result;
    const size_t eps_index = pc.model.num_classes > 50 ? 1 : 0;
    const auto* base = result.find(0, 0, eps_index);
    const auto* noise = result.find(1, 0, eps_index);
    if (base != nullptr && noise != nullptr) {
      std::printf(
          "  [sweep] eval-set re-check (FGSM eps=%.2f): baseline clean "
          "%.2f%% adv %.2f%%  |  noisy clean %.2f%% adv %.2f%%  (AL %.2f -> "
          "%.2f)\n\n",
          static_cast<double>(base->epsilon), base->clean.mean,
          base->adv.mean, noise->clean.mean, noise->adv.mean, base->al.mean,
          noise->al.mean);
    }
    ExperimentProgram::report(pc);
  }

  void finish(RunContext&) override {
    std::printf("%s\n", table_name_ == "table1_vgg19"
                            ? "Paper shape check: noise-injection sites "
                              "should concentrate in the\ninitial layers, "
                              "with a small clean-accuracy deviation (paper: "
                              "2.61% / 2.9%)."
                            : "Paper shape check: as in Table I, early layers "
                              "dominate; ResNet18\ntolerates a somewhat "
                              "larger clean-accuracy deviation (paper: 6.14% "
                              "/ 7.1%).");
  }

 private:
  std::string table_name_;
  sram::SelectionResult selection_;
};

// -- fig6 / fig7 (crossbar robustness figures) --------------------------------

ExperimentSpec xbar_figure_spec(const std::string& arch,
                                const std::string& dataset,
                                const std::string& figure_name) {
  ExperimentSpec s;
  s.tag = figure_name;
  s.title = figure_name + ": crossbar non-ideality robustness, " + arch +
            " on " + dataset;
  s.subtitle =
      "Attack-SW = software baseline attacked white-box; SH = software-"
      "crafted adversaries on the crossbar model; HH = adversaries crafted "
      "through the crossbar model itself. AL = clean - adversarial (%).";
  s.panels.push_back({arch, dataset});
  s.backends.push_back(arm("ideal", "ideal"));
  for (const int64_t size : {16, 32}) {
    const std::string key = "x" + std::to_string(size);
    const std::string label = "Cross" + std::to_string(size);
    s.backends.push_back(arm(key, "xbar:size=" + std::to_string(size)));
    s.modes.push_back({label + "/Attack-SW", "ideal", "ideal"});
    s.modes.push_back({label + "/SH", "ideal", key});
    s.modes.push_back({label + "/HH", key, key});
  }
  s.attacks.push_back({"fgsm", fgsm_epsilons()});
  s.attacks.push_back({"pgd", pgd_epsilons()});
  return s;
}

class XbarFigureProgram final : public ExperimentProgram {
 public:
  explicit XbarFigureProgram(std::string extra_check = "")
      : extra_check_(std::move(extra_check)) {}

  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    TablePrinter table(
        {"crossbar", "attack", "mode", "eps", "clean", "adv", "AL"});
    for (const int64_t size : {16, 32}) {
      const std::string key = "x" + std::to_string(size);
      const std::string label = "Cross" + std::to_string(size);
      print_map_report(*pc.engine, key, pc.model.name);
      for (const std::string spec : {"fgsm", "pgd"}) {
        std::vector<Series> panel;
        for (const char* mode : {"Attack-SW", "SH", "HH"}) {
          const auto curve = result.curve(label + "/" + mode, spec);
          Series series;
          series.label = mode;
          for (const auto& pt : curve.points) {
            table.add_row({label, attacks::attack_display_name(spec), mode,
                           core::fmt(pt.epsilon, 3), core::fmt(pt.clean_acc, 2),
                           core::fmt(pt.adv_acc, 2), core::fmt(pt.al, 2)});
            series.x.push_back(pt.epsilon);
            series.y.push_back(pt.al);
          }
          panel.push_back(std::move(series));
        }
        PlotOptions opt;
        opt.title = label + " - " + attacks::attack_display_name(spec) +
                    " attack (AL vs eps)";
        opt.y_min = 0;
        opt.y_max = 100;
        std::printf("%s\n", render_ascii_plot(panel, opt).c_str());
      }
      std::printf("[rhw_run] %s\n",
                  pc.engine->backend(key)->energy_report().summary().c_str());
    }
    table.print();
    table.write_csv(bench_out_dir() + "/" + pc.tag + ".csv");
    std::printf(
        "\nPaper shape check: SH and HH ALs sit well below Attack-SW at the "
        "same eps\n(paper: ~10-20%% lower), for both FGSM and PGD.\n");
    if (!extra_check_.empty()) std::printf("%s\n", extra_check_.c_str());
  }

 private:
  std::string extra_check_;
};

// -- fig8a --------------------------------------------------------------------

ExperimentSpec fig8a_spec() {
  ExperimentSpec s;
  s.tag = "fig8a_rmin";
  s.title = "Fig. 8(a): effect of RMIN on crossbar robustness";
  s.subtitle =
      "Smaller RMIN -> lower effective resistance -> parasitics dominate "
      "more -> more intrinsic noise -> lower AL.";
  s.panels.push_back({"vgg8", "synth-c10"});
  s.backends.push_back(arm("ideal", "ideal"));
  for (const int rk : {10, 20}) {
    const std::string key = "r" + std::to_string(rk);
    s.backends.push_back(
        arm(key, "xbar:size=32,rmin=" + std::to_string(rk * 1000)));
    s.modes.push_back({key + "/SH", "ideal", key});
    s.modes.push_back({key + "/HH", key, key});
  }
  s.attacks.push_back({"pgd", {2.f / 255.f, 8.f / 255.f, 32.f / 255.f}});
  return s;
}

class Fig8aProgram final : public ExperimentProgram {
 public:
  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    // The pivot table needs the preset's three-point PGD axis on every
    // RMIN mode; if overrides reshaped the grid, fall back to the generic
    // report instead of indexing past the curve.
    for (const char* label : {"r10/SH", "r10/HH", "r20/SH", "r20/HH"}) {
      try {
        if (result.curve(label, "pgd").points.size() < 3) {
          ExperimentProgram::report(pc);
          return;
        }
      } catch (const std::invalid_argument&) {
        ExperimentProgram::report(pc);
        return;
      }
    }
    TablePrinter table(
        {"RMIN", "mode", "eps=2/255", "eps=8/255", "eps=32/255"});
    for (const int rk : {10, 20}) {
      const std::string key = "r" + std::to_string(rk);
      print_map_report(*pc.engine, key, pc.model.name);
      for (const char* mode : {"SH", "HH"}) {
        const auto curve = result.curve(key + "/" + mode, "pgd");
        table.add_row({std::to_string(rk) + " kOhm", mode,
                       core::fmt(curve.points[0].al, 2),
                       core::fmt(curve.points[1].al, 2),
                       core::fmt(curve.points[2].al, 2)});
      }
    }
    table.print();
    table.write_csv(bench_out_dir() + "/" + pc.tag + ".csv");
    std::printf(
        "\nPaper shape check: ALs for RMIN = 10 kOhm rows should be lower "
        "than the\ncorresponding RMIN = 20 kOhm rows.\n");
  }
};

// -- fig8bc -------------------------------------------------------------------

ExperimentSpec fig8bc_spec() {
  ExperimentSpec s;
  s.tag = "fig8bc_defense_comparison";
  s.title =
      "Fig. 8(b)-(c): crossbar defense vs 4-bit discretization vs QUANOS vs "
      "randomized smoothing";
  s.subtitle =
      "All defenses evaluated white-box on themselves except SH, whose "
      "adversaries come from the undefended software baseline (the paper's "
      "SH-on-Cross32 configuration). Every arm is a (backend spec, defense "
      "spec) pair.";
  s.panels.push_back({"vgg16", "synth-c100"});
  s.backends.push_back(arm("ideal", "ideal"));
  // Defense 1: crossbar mapping (SH mode, 32x32), via the backend registry.
  s.backends.push_back(arm("x32", "xbar:size=32"));
  // Defense 2: 4-bit pixel discretization [6] over the ideal substrate.
  s.backends.push_back(arm("disc4b", "ideal", "jpeg_quant:bits=4"));
  // Defense 3: QUANOS [8], requantizing from the calibration set.
  s.backends.push_back(arm("quanos", "ideal", "quanos:samples=128", true));
  // Defense 4 (beyond the paper): randomized smoothing; 16 votes is the
  // certification floor at alpha=0.001.
  s.backends.push_back(arm("smoothed", "ideal", "smooth:sigma=0.1,samples=16"));
  s.modes.push_back({"Attack-SW", "ideal", "ideal"});
  s.modes.push_back({"SH-Cross32", "ideal", "x32"});
  s.modes.push_back({"4b-discretization", "disc4b", "disc4b"});
  s.modes.push_back({"QUANOS", "quanos", "quanos"});
  s.modes.push_back({"Smooth", "smoothed", "smoothed"});
  s.attacks.push_back({"fgsm", fgsm_epsilons()});
  s.attacks.push_back({"pgd", pgd_epsilons()});
  return s;
}

class Fig8bcProgram final : public ExperimentProgram {
 public:
  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    print_map_report(*pc.engine, "x32", pc.model.name);
    TablePrinter table({"attack", "defense", "eps", "clean", "adv", "AL"});
    for (const std::string spec : {"fgsm", "pgd"}) {
      const std::string attack = attacks::attack_display_name(spec);
      for (const auto& mode : result.mode_labels) {
        const auto curve = result.curve(mode, spec);
        for (const auto& pt : curve.points) {
          table.add_row({attack, mode, core::fmt(pt.epsilon, 3),
                         core::fmt(pt.clean_acc, 2), core::fmt(pt.adv_acc, 2),
                         core::fmt(pt.al, 2)});
        }
      }
    }
    table.print();
    table.write_csv(bench_out_dir() + "/" + pc.tag + ".csv");
    for (size_t m = 0; m < result.mode_labels.size(); ++m) {
      if (result.mode_labels[m] != "Smooth") continue;
      const auto* smooth_agg = result.find(m, 0, 0);
      std::printf(
          "\n[cert] Smooth: mean certified L2 radius %.4f (sigma=0.1, 16 "
          "votes, Clopper-Pearson @ 99.9%%)\n",
          smooth_agg != nullptr ? smooth_agg->cert.mean : 0.0);
    }
    std::printf(
        "\nPaper shape check: FGSM -> SH-Cross32 should have the lowest AL "
        "of all\npaper defenses (paper: ~15%% better than 4b, ~4%% better "
        "than QUANOS); PGD ->\nQUANOS should win with SH second.\n");
  }
};

// -- fig_cert -----------------------------------------------------------------

ExperimentSpec fig_cert_spec() {
  ExperimentSpec s;
  s.tag = "fig_cert";
  s.title = "Certified accuracy vs L2 radius (smooth:sigma over substrates)";
  s.subtitle =
      "Each arm wraps a substrate in randomized smoothing at one sigma; its "
      "aggregate row is one (mean certified L2 radius, smoothed clean "
      "accuracy) point of the Cohen staircase, from the existing "
      "Clopper-Pearson cert_radius column. Larger sigma certifies a larger "
      "ball at a lower ceiling. dataset= swaps the panel onto any registered "
      "dataset, including +corrupt:... variants (docs/DATASETS.md).";
  s.panels.push_back({"vgg8", "synth-c10"});
  s.train = "zoo";
  s.trials = 3;
  // alpha=0.05 everywhere: at small vote counts the default 0.001 makes the
  // Clopper-Pearson lower bound top out below 1/2 (0.001^(1/8) ~= 0.42),
  // which certifies radius 0 for every arm.
  const std::string votes = "16,alpha=0.05";
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(
      arm("s010", "ideal", "smooth:sigma=0.1,samples=" + votes));
  s.backends.push_back(
      arm("s025", "ideal", "smooth:sigma=0.25,samples=" + votes));
  s.backends.push_back(
      arm("s050", "ideal", "smooth:sigma=0.5,samples=" + votes));
  // The compositional point: certification on top of the noisy substrate.
  s.backends.push_back(arm("sram_s025", "sram:vdd=0.68,eval_count=150",
                           "smooth:sigma=0.25,samples=" + votes, true));
  // Mode labels avoid '=': it separates label from pairing in the modes+=
  // list grammar, and fig_cert must survive the to_args() round trip.
  s.modes.push_back({"baseline", "ideal", "ideal"});
  s.modes.push_back({"sigma-0.10", "s010", "s010"});
  s.modes.push_back({"sigma-0.25", "s025", "s025"});
  s.modes.push_back({"sigma-0.50", "s050", "s050"});
  s.modes.push_back({"sigma-0.25+sram", "ideal", "sram_s025"});
  s.attacks.push_back({"fgsm", {0.1f}});
  return s;
}

class FigCertProgram final : public ExperimentProgram {
 public:
  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    TablePrinter table(
        {"arm", "substrate", "defense", "clean", "adv", "cert L2"});
    std::vector<std::pair<double, double>> staircase;  // (radius, clean acc)
    for (size_t m = 0; m < result.mode_labels.size(); ++m) {
      const auto* agg = result.find(m, 0, 0);
      if (agg == nullptr) continue;
      const SweepBackendInfo* info = nullptr;
      for (const auto& b : result.backends) {
        if (b.key == result.mode_defs[m].eval) info = &b;
      }
      table.add_row(
          {result.mode_labels[m], info != nullptr ? info->spec : "-",
           info != nullptr && info->defense != "none" ? info->defense : "-",
           agg->clean.format(), agg->adv.format(),
           agg->cert.mean > 0.0 ? agg->cert.format(3) : "-"});
      if (agg->cert.mean > 0.0) {
        staircase.emplace_back(agg->cert.mean, agg->clean.mean);
      }
    }
    table.print();
    table.write_csv(bench_out_dir() + "/" + pc.tag + ".csv");

    std::sort(staircase.begin(), staircase.end());
    if (staircase.size() >= 2) {
      Series series;
      series.label = "certified acc";
      for (const auto& [radius, acc] : staircase) {
        series.x.push_back(static_cast<float>(radius));
        series.y.push_back(static_cast<float>(acc));
      }
      PlotOptions opt;
      opt.title = "certified accuracy vs mean certified L2 radius";
      opt.y_min = 0;
      opt.y_max = 100;
      std::printf("%s\n", render_ascii_plot({series}, opt).c_str());
    }
    std::printf(
        "\nReading guide: each smoothed arm contributes one staircase point "
        "—\nmean certified L2 radius (x) against smoothed clean accuracy "
        "(y).\nLarger sigma moves right (bigger certified ball) and down "
        "(noisier\nvotes); the sram arm shows how much certified radius the "
        "noisy\nsubstrate costs at fixed sigma. The baseline row certifies "
        "nothing.\n");
  }
};

// -- table3 -------------------------------------------------------------------

ExperimentSpec table3_spec() {
  ExperimentSpec s;
  s.tag = "table3_xbar_sizes";
  s.title = "Table III: HH-PGD AL vs crossbar size (VGG8, synth-c10)";
  s.subtitle =
      "Larger crossbars carry more parasitics, hence more intrinsic noise "
      "and lower AL.";
  s.panels.push_back({"vgg8", "synth-c10"});
  for (const int64_t size : {16, 32, 64}) {
    const std::string key = "x" + std::to_string(size);
    s.backends.push_back(arm(key, "xbar:size=" + std::to_string(size)));
    s.modes.push_back({"HH/" + key, key, key});
  }
  s.attacks.push_back({"pgd",
                       {2.f / 255.f, 4.f / 255.f, 8.f / 255.f, 16.f / 255.f,
                        32.f / 255.f}});
  return s;
}

class Table3Program final : public ExperimentProgram {
 public:
  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    TablePrinter table({"eps", "Cross16", "Cross32", "Cross64"});
    std::vector<std::vector<double>> al;
    for (const int64_t size : {16, 32, 64}) {
      const std::string key = "x" + std::to_string(size);
      print_map_report(*pc.engine, key, pc.model.name);
      const auto curve = result.curve("HH/" + key, "pgd");
      al.resize(curve.points.size());
      for (size_t i = 0; i < curve.points.size(); ++i) {
        al[i].push_back(curve.points[i].al);
      }
    }
    for (size_t i = 0; i < al.size(); ++i) {
      const float eps = result.aggregates.empty()
                            ? 0.f
                            : pc.grid.attacks[0].epsilons[i];
      table.add_row({std::to_string(static_cast<int>(eps * 255 + 0.5f)) +
                         "/255",
                     core::fmt(al[i][0], 2), core::fmt(al[i][1], 2),
                     core::fmt(al[i][2], 2)});
    }
    table.print();
    table.write_csv(bench_out_dir() + "/" + pc.tag + ".csv");
    std::printf(
        "\nPaper shape check: for each eps, AL should decrease with crossbar "
        "size\n(Cross64 most robust; paper rows: ~72 / ~71 / ~68).\n");
  }
};

// -- defense shootout ---------------------------------------------------------

ExperimentSpec shootout_spec() {
  ExperimentSpec s;
  s.tag = "defense_shootout";
  s.title = "Defense shoot-out";
  s.subtitle =
      "Hardware-noise defenses vs software defenses on one model, one table "
      "— every arm declared purely by spec strings; noisy rows are mean ± "
      "95% CI over 3 noise-stream trials. The energy column prices each "
      "serving arm including its defense overhead (N x forwards for smooth, "
      "requantized words for QUANOS), so rows rank at iso-energy.";
  s.panels.push_back({kSmallVgg8, kTinyTrained});
  s.train = "quick:epochs=4,batch=50";
  s.eval_count = 0;  // whole (tiny) test set
  s.trials = 3;
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(arm("sram", "sram:vdd=0.68,eval_count=150", "", true));
  s.backends.push_back(arm("xbar", "xbar:size=32"));
  s.backends.push_back(
      arm("advtrain", "ideal", "adv_train:attack=fgsm,eps=0.1,ratio=0.5,epochs=2"));
  s.backends.push_back(arm("disc4b", "ideal", "jpeg_quant:bits=4"));
  s.backends.push_back(arm("quanos", "ideal", "quanos:samples=100", true));
  // The compositional arm: smoothing over the noisy SRAM substrate.
  s.backends.push_back(arm("smoothsram", "sram:vdd=0.68,eval_count=150",
                           "smooth:sigma=0.12,samples=8,alpha=0.05", true));
  s.modes.push_back({"undefended", "ideal", "ideal"});
  s.modes.push_back({"SRAM-noise", "ideal", "sram"});
  s.modes.push_back({"crossbar-SH", "ideal", "xbar"});
  s.modes.push_back({"adv-train", "advtrain", "advtrain"});
  s.modes.push_back({"4b-discretize", "disc4b", "disc4b"});
  s.modes.push_back({"QUANOS", "quanos", "quanos"});
  s.modes.push_back({"smooth+SRAM", "ideal", "smoothsram"});
  s.attacks.push_back({"fgsm", {0.1f}});
  s.attacks.push_back({"pgd", {8.f / 255.f}});
  return s;
}

class ShootoutProgram final : public ExperimentProgram {
 public:
  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    // The paper-style table needs the preset's (FGSM, PGD) attack pair; if
    // overrides reshaped the attack axis, fall back to the generic report
    // instead of dereferencing missing aggregates.
    if (result.attack_specs.size() < 2 ||
        result.find(0, 0, 0) == nullptr || result.find(0, 1, 0) == nullptr) {
      ExperimentProgram::report(pc);
      return;
    }
    for (const char* key : {"ideal", "sram", "xbar", "quanos", "smoothsram"}) {
      const auto* backend = pc.engine->backend(key);
      if (backend != nullptr) {
        std::printf("prepared '%s'  ->  %s\n", key,
                    backend->energy_report().summary().c_str());
      }
    }
    std::printf("\n");
    TablePrinter table({"defense", "clean", "FGSM adv", "FGSM AL", "PGD adv",
                        "PGD AL", "cert L2", "energy (nJ)"});
    for (size_t m = 0; m < result.mode_labels.size(); ++m) {
      const auto* fgsm = result.find(m, 0, 0);
      const auto* pgd = result.find(m, 1, 0);
      const auto* eval_backend =
          pc.engine->backend(result.mode_defs[m].eval);
      table.add_row(
          {result.mode_labels[m], fgsm->clean.format(), fgsm->adv.format(),
           fgsm->al.format(), pgd->adv.format(), pgd->al.format(),
           fgsm->cert.mean > 0.0 ? fgsm->cert.format(3) : "-",
           eval_backend != nullptr
               ? core::fmt(eval_backend->energy_report().energy_nj, 4)
               : "-"});
    }
    table.print();
    table.write_csv(bench_out_dir() + "/" + pc.tag + ".csv");
    std::printf(
        "\nReading guide: every defense trades a little clean accuracy for "
        "a\nlower AL; the hardware rows do it without touching the training "
        "pipeline,\nand the smooth+SRAM row composes both worlds (its cert "
        "column is the mean\ncertified L2 radius — no other arm certifies "
        "anything). The energy column\nincludes defense overhead line items, "
        "so rows compare at iso-energy.\nNoisy rows are mean±95%%CI over %d "
        "noise-stream trials.\n",
        result.trials);
  }
};

// -- gradient-obfuscation audit -----------------------------------------------

ExperimentSpec audit_spec() {
  ExperimentSpec s;
  s.tag = "gradient_obfuscation_audit";
  s.title = "Gradient-obfuscation audit";
  s.subtitle =
      "PGD (the paper's number) vs EOT-PGD (adaptive) vs Square (gradient-"
      "free) per hardware substrate, plus transfer and gradient-agreement "
      "checks — the Athalye et al. obfuscated-gradients audit as one "
      "declarative grid.";
  s.panels.push_back({kSmallVgg8, kTinyTrained});
  s.train = "quick:epochs=4,batch=50";
  s.eval_count = 200;
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(arm("xbar", "xbar:size=32"));
  s.backends.push_back(arm("sram", "sram:sites=2,num_8t=2,vdd=0.64"));
  s.modes.push_back({"control", "ideal", "ideal"});
  for (const char* key : {"xbar", "sram"}) {
    s.modes.push_back({std::string("white-box/") + key, key, key});
    s.modes.push_back({std::string("transfer/") + key, "ideal", key});
  }
  s.attacks.push_back({"pgd:steps=7", {0.1f}});
  s.attacks.push_back({"eot_pgd:steps=7,samples=8", {0.1f}});
  s.attacks.push_back({"square:queries=150", {0.1f}});
  return s;
}

class AuditProgram final : public ExperimentProgram {
 public:
  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    attacks::ObfuscationConfig ocfg;
    ocfg.epsilon = 0.1f;
    ocfg.sample_count = pc.eval_set.size();

    auto mode_index = [&](const std::string& label) {
      for (size_t m = 0; m < result.mode_labels.size(); ++m) {
        if (result.mode_labels[m] == label) return m;
      }
      return result.mode_labels.size();
    };
    // The audit narrative needs the preset's mode/attack structure (control
    // + white-box/transfer per substrate, PGD/EOT-PGD/Square); if overrides
    // reshaped it, fall back to the generic report instead of dereferencing
    // missing rows.
    bool shape_intact = result.attack_specs.size() >= 3;
    for (const char* key : {"ideal", "xbar", "sram"}) {
      shape_intact = shape_intact && pc.engine->backend(key) != nullptr;
    }
    for (const char* label :
         {"control", "white-box/xbar", "transfer/xbar", "white-box/sram",
          "transfer/sram"}) {
      shape_intact = shape_intact &&
                     result.find(mode_index(label), 0, 0) != nullptr &&
                     result.find(mode_index(label), 2, 0) != nullptr;
    }
    if (!shape_intact) {
      ExperimentProgram::report(pc);
      return;
    }
    // Attack arms by grid order: 0 = PGD, 1 = EOT-PGD, 2 = Square.
    auto adv = [&](const std::string& mode, size_t attack) {
      return result.find(mode_index(mode), attack, 0)->adv.mean;
    };

    nn::Module& reference = pc.engine->backend("ideal")->module();
    const auto* control = result.find(mode_index("control"), 0, 0);
    std::printf("software baseline (control):\n");
    std::printf("  clean accuracy                     : %.2f%%\n",
                control->clean.mean);
    std::printf("  white-box PGD adv accuracy         : %.2f%%\n",
                control->adv.mean);
    std::printf("  EOT-PGD adv accuracy               : %.2f%%\n",
                adv("control", 1));
    std::printf("  Square (black-box) adv accuracy    : %.2f%%\n\n",
                adv("control", 2));

    const struct {
      const char* title;
      const char* key;
    } substrates[] = {
        {"crossbar-mapped model (32x32)", "xbar"},
        {"hybrid-SRAM noisy model (2/6 @ 0.64 V)", "sram"},
    };
    TablePrinter table({"substrate", "clean", "PGD", "EOT-PGD", "Square",
                        "transfer-PGD", "verdict"});
    for (const auto& sub : substrates) {
      const std::string white = std::string("white-box/") + sub.key;
      const std::string transfer = std::string("transfer/") + sub.key;
      nn::Module& hardware = pc.engine->backend(sub.key)->module();
      const double clean = result.find(mode_index(white), 0, 0)->clean.mean;
      const double pgd_acc = adv(white, 0);
      const double eot_acc = adv(white, 1);
      const double square_acc = adv(white, 2);
      const double transfer_acc = adv(transfer, 0);
      const double cos =
          attacks::gradient_agreement(reference, hardware, pc.eval_set, ocfg);
      const double random_floor =
          attacks::random_perturbation_accuracy(hardware, pc.eval_set, ocfg);

      // The accuracies are single noisy draws on a small set, so require the
      // gap to clear a 5-example margin before raising the flag.
      const double margin =
          100.0 * 5.0 / static_cast<double>(pc.eval_set.size());
      const bool eot_breaks = eot_acc < pgd_acc - margin;
      const bool square_breaks = square_acc < pgd_acc - margin;
      const bool transfer_breaks = transfer_acc < pgd_acc - margin;
      const bool suspected = eot_breaks || square_breaks || transfer_breaks;
      std::string verdict = suspected ? "OBFUSCATION:" : "no sign";
      if (eot_breaks) verdict += " eot";
      if (square_breaks) verdict += " square";
      if (transfer_breaks) verdict += " transfer";
      table.add_row({sub.key, core::fmt(clean, 2), core::fmt(pgd_acc, 2),
                     core::fmt(eot_acc, 2), core::fmt(square_acc, 2),
                     core::fmt(transfer_acc, 2), verdict});

      std::printf("%s:\n", sub.title);
      std::printf("  gradient cosine vs software model : %.4f\n", cos);
      std::printf("  clean accuracy                     : %.2f%%\n", clean);
      std::printf("  white-box PGD adv accuracy         : %.2f%%\n", pgd_acc);
      std::printf("  EOT-PGD (adaptive) adv accuracy    : %.2f%%%s\n",
                  eot_acc, eot_breaks ? "   <- beats PGD" : "");
      std::printf("  Square (black-box) adv accuracy    : %.2f%%%s\n",
                  square_acc, square_breaks ? "   <- beats PGD" : "");
      std::printf("  transferred PGD adv accuracy       : %.2f%%%s\n",
                  transfer_acc, transfer_breaks ? "   <- beats PGD" : "");
      std::printf("  random-perturbation floor          : %.2f%%\n",
                  random_floor);
      std::printf("  obfuscation suspected              : %s\n\n",
                  suspected ? "YES" : "no");
    }
    table.print();
    std::printf(
        "\nInterpretation: gradient cosine < 1 means the hardware gradients "
        "diverge from\nthe software model's. Robustness that survives "
        "EOT-PGD and Square is real margin;\nrobustness that only holds "
        "against plain PGD is gradient obfuscation — the\nhonest caveat the "
        "paper's Fig. 1 story needs.\n");
  }
};

// -- sweep smoke --------------------------------------------------------------

ExperimentSpec sweep_smoke_spec() {
  ExperimentSpec s;
  s.tag = "sweep_smoke";
  s.title = "Sweep-engine smoke";
  s.subtitle =
      "Tiny grid, parallel vs serial parity + speedup. Accuracy numbers are "
      "meaningless (untrained model); determinism and scheduling are what is "
      "under test.";
  s.panels.push_back({kSmallVgg8, "tiny:classes=10,train=4,test=8,size=16"});
  s.train = "none";
  s.eval_count = 64;
  s.batch = 32;
  s.trials = 2;
  s.verify = true;  // the CI guard for the engine's determinism contract
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(arm("sram", "sram:sites=2,num_8t=4,vdd=0.64"));
  s.backends.push_back(arm("xbar", "xbar:size=16"));
  s.modes.push_back({"Attack-SW", "ideal", "ideal"});
  s.modes.push_back({"SH-sram", "ideal", "sram"});
  s.modes.push_back({"SH-xbar", "ideal", "xbar"});
  s.modes.push_back({"HH-xbar", "xbar", "xbar"});
  s.attacks.push_back({"fgsm", {0.f, 0.1f, 0.2f}});
  s.attacks.push_back({"pgd", {8.f / 255.f}});
  // Stochastic-aware arms, tiny budgets: attacks which reseed (EOT-PGD) or
  // query (Square) the eval net while crafting must still sweep
  // bit-identically at any lane count.
  s.attacks.push_back({"eot_pgd:steps=2,samples=2", {8.f / 255.f}});
  s.attacks.push_back({"square:queries=12", {0.1f}});
  s.attacks.push_back({"mifgsm:steps=2", {0.1f}});
  return s;
}

// -- serving ------------------------------------------------------------------

ExperimentSpec serve_smoke_spec() {
  ExperimentSpec s;
  s.tag = "serve_smoke";
  s.title = "Serving smoke";
  s.subtitle =
      "Tiny three-arm micro-batching serve run (fused ideal, defense-wrapped, "
      "stochastic SRAM): deterministic Poisson load, rhw-serve-v1 artifact, "
      "and digest parity across load points. Accuracy is meaningless "
      "(untrained model); batching, latency accounting and request-level "
      "determinism are what is under test.";
  s.serve = true;
  s.panels.push_back({kSmallVgg8, "tiny:classes=10,train=4,test=8,size=16"});
  s.train = "none";
  s.eval_count = 64;  // head() clamps to the tiny test set
  s.qps = {400.f, 1600.f};
  s.requests = 96;
  s.batch_max = 8;
  s.linger_us = 1000;
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(arm("disc4b", "ideal", "jpeg_quant:bits=4"));
  s.backends.push_back(arm("sram", "sram:sites=2,num_8t=4,vdd=0.64"));
  return s;
}

ExperimentSpec serve_curve_spec() {
  ExperimentSpec s;
  s.tag = "serve";  // -> BENCH_serve.json
  s.title = "Serving latency vs offered load";
  s.subtitle =
      "Open-loop Poisson load swept across offered QPS per (backend, "
      "defense) arm: p50/p95/p99 latency and achieved throughput per point. "
      "Past the saturation knee the open-loop queue grows without bound, so "
      "achieved QPS plateaus while tail latency explodes — the knee the "
      "compute-engine knob (engine=) and batching knobs visibly move.";
  s.serve = true;
  s.panels.push_back({kSmallVgg8, kTinyTrained});
  s.train = "quick:epochs=2,batch=50";
  s.eval_count = 64;
  s.qps = {100.f, 200.f, 400.f, 800.f, 1600.f, 3200.f};
  s.requests = 192;
  s.batch_max = 16;
  s.linger_us = 2000;
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(arm("xbar", "xbar:size=16"));
  s.backends.push_back(arm("disc4b", "ideal", "jpeg_quant:bits=4"));
  s.backends.push_back(arm("sram", "sram:sites=2,num_8t=4,vdd=0.64"));
  return s;
}

// -- ablations ----------------------------------------------------------------

ExperimentSpec ablation_adaptive_spec() {
  ExperimentSpec s;
  s.tag = "ablation_adaptive";
  s.title = "Ablation: adaptive (EOT) attack on the crossbar defense";
  s.subtitle =
      "HH-PGD with gradient averaging over k noise draws per step. k=1 is "
      "the paper's HH; larger k models an attacker who knows the hardware is "
      "stochastic. Attack-SW is the software reference.";
  s.panels.push_back({"vgg8", "synth-c10"});
  s.backends.push_back(arm("ideal", "ideal"));
  s.backends.push_back(arm("x32", "xbar:size=32"));
  s.modes.push_back({"Attack-SW", "ideal", "ideal"});
  s.modes.push_back({"HH-Cross32", "x32", "x32"});
  const std::vector<float> eps{8.f / 255.f, 16.f / 255.f, 32.f / 255.f};
  s.attacks.push_back({"pgd", eps});
  s.attacks.push_back({"eot_pgd:samples=4", eps});
  s.attacks.push_back({"eot_pgd:samples=16", eps});
  return s;
}

class AblationAdaptiveProgram final : public ExperimentProgram {
 public:
  void finish(RunContext&) override {
    std::printf(
        "\nReading guide: AL grows with k (the adaptive attacker recovers "
        "part of the\ngradient signal), but the deterministic weight "
        "distortion keeps a residual\nrobustness floor below the software "
        "baseline's AL.\n");
  }
};

ExperimentSpec ablation_chip_spec() {
  ExperimentSpec s;
  s.tag = "ablation_chip_variation";
  s.title = "Ablation: chip-to-chip variation";
  s.subtitle =
      "Same network, same crossbar spec, N variation seeds (= N fabricated "
      "chips): each chip is a fresh sample of the sigma/mu = 10% conductance "
      "distribution.";
  s.panels.push_back({"vgg8", "synth-c10"});
  s.backends.push_back(arm("ideal", "ideal"));
  for (int chip = 0; chip < 5; ++chip) {
    const std::string key = "chip" + std::to_string(chip);
    s.backends.push_back(
        arm(key, "xbar:size=32,seed=" +
                     std::to_string(0xC41B + static_cast<uint64_t>(chip) *
                                                 7919)));
    s.modes.push_back({key, "ideal", key});
  }
  s.modes.push_back({"software", "ideal", "ideal"});
  s.attacks.push_back({"fgsm", {0.1f}});
  return s;
}

class AblationChipProgram final : public ExperimentProgram {
 public:
  void report(PanelContext& pc) override {
    const SweepResult& result = *pc.result;
    TablePrinter table({"chip", "clean %", "SH adv %", "SH AL"});
    RunningStats clean_stats, al_stats;
    const SweepAggregate* software = nullptr;
    for (size_t m = 0; m < result.mode_labels.size(); ++m) {
      const auto* agg = result.find(m, 0, 0);
      table.add_row({result.mode_labels[m], core::fmt(agg->clean.mean, 2),
                     core::fmt(agg->adv.mean, 2), core::fmt(agg->al.mean, 2)});
      if (result.mode_labels[m] == "software") {
        software = agg;
      } else {
        clean_stats.push(agg->clean.mean);
        al_stats.push(agg->al.mean);
      }
    }
    table.print();
    table.write_csv(bench_out_dir() + "/" + pc.tag + ".csv");
    std::printf(
        "\nacross %lld chips @ FGSM eps=0.10: clean %.2f +- %.2f %%, AL "
        "%.2f +- %.2f %% (software AL %.2f)\nPaper shape check: every chip's "
        "AL should sit below the software AL — the\ndefense is a property of "
        "the technology, not of one lucky die.\n",
        static_cast<long long>(clean_stats.count), clean_stats.mean,
        clean_stats.stddev(), al_stats.mean, al_stats.stddev(),
        software != nullptr ? software->al.mean : 0.0);
  }
};

}  // namespace

void register_builtin_experiments(ExperimentRegistry& registry) {
  // Validation-time stand-ins for the methodology-registered keys: fig5 and
  // the config tables reference "sram_selected" / "sram_weight_noise" before
  // their setup() bakes in a real selection, and `rhw_run --list` must be
  // able to validate those specs without running the methodology. The
  // programs re-register the keys with the computed selection per panel.
  register_selected_sram_backend({});
  register_weight_noise_backend({});

  registry.add(
      "fig5", [] { return fig5_spec(false); },
      [] { return std::make_unique<Fig5Program>(false); });
  registry.add(
      "fig5w", [] { return fig5_spec(true); },
      [] { return std::make_unique<Fig5Program>(true); });
  registry.add(
      "fig6", [] { return xbar_figure_spec("vgg8", "synth-c10",
                                           "fig6_vgg8_c10"); },
      [] { return std::make_unique<XbarFigureProgram>(); });
  registry.add(
      "fig7",
      [] { return xbar_figure_spec("vgg16", "synth-c100", "fig7_vgg16_c100"); },
      [] {
        return std::make_unique<XbarFigureProgram>(
            "Additional paper shape check (complex dataset): under PGD, HH "
            "should show\nlower AL than SH (gradient obfuscation through the "
            "hardware forward path).");
      });
  registry.add(
      "fig8a", fig8a_spec, [] { return std::make_unique<Fig8aProgram>(); });
  registry.add(
      "fig8bc", fig8bc_spec,
      [] { return std::make_unique<Fig8bcProgram>(); });
  registry.add(
      "fig_cert", fig_cert_spec,
      [] { return std::make_unique<FigCertProgram>(); });
  registry.add(
      "table1", [] { return config_table_spec("vgg19", "table1_vgg19"); },
      [] { return std::make_unique<ConfigTableProgram>("table1_vgg19"); });
  registry.add(
      "table2",
      [] { return config_table_spec("resnet18", "table2_resnet18"); },
      [] { return std::make_unique<ConfigTableProgram>("table2_resnet18"); });
  registry.add(
      "table3", table3_spec, [] { return std::make_unique<Table3Program>(); });
  registry.add(
      "shootout", shootout_spec,
      [] { return std::make_unique<ShootoutProgram>(); });
  registry.add(
      "obfuscation_audit", audit_spec,
      [] { return std::make_unique<AuditProgram>(); });
  registry.add("sweep_smoke", sweep_smoke_spec);
  registry.add("serve_smoke", serve_smoke_spec);
  registry.add("serve_curve", serve_curve_spec);
  registry.add(
      "ablation_adaptive", ablation_adaptive_spec,
      [] { return std::make_unique<AblationAdaptiveProgram>(); });
  registry.add(
      "ablation_chip_variation", ablation_chip_spec,
      [] { return std::make_unique<AblationChipProgram>(); });
}

}  // namespace rhw::exp
