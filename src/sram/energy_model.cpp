#include "sram/energy_model.hpp"

#include <stdexcept>

namespace rhw::sram {

double SramEnergyModel::bit_read_energy_fj(bool is_8t, double vdd) const {
  const double base = is_8t ? params_.e_read_8t_fj : params_.e_read_6t_fj;
  const double ratio = vdd / params_.nominal_vdd;
  return base * ratio * ratio;
}

double SramEnergyModel::cell_leakage_nw(bool is_8t, double vdd) const {
  const double base = is_8t ? params_.leak_8t_nw : params_.leak_6t_nw;
  return base * (vdd / params_.nominal_vdd);
}

double SramEnergyModel::word_read_energy_fj(const HybridWordConfig& word,
                                            double vdd) const {
  return static_cast<double>(word.num_8t) * bit_read_energy_fj(true, vdd) +
         static_cast<double>(word.num_6t()) * bit_read_energy_fj(false, vdd);
}

double SramEnergyModel::word_area_um2(const HybridWordConfig& word) const {
  return static_cast<double>(word.num_8t) * params_.area_8t_um2 +
         static_cast<double>(word.num_6t()) * params_.area_6t_um2;
}

double SramEnergyModel::word_leakage_nw(const HybridWordConfig& word,
                                        double vdd) const {
  return static_cast<double>(word.num_8t) * cell_leakage_nw(true, vdd) +
         static_cast<double>(word.num_6t()) * cell_leakage_nw(false, vdd);
}

MemoryEnergyReport activation_memory_report(
    models::Model& model, const rhw::Tensor& sample_input, double vdd,
    const std::vector<std::pair<std::string, HybridWordConfig>>& noisy_sites,
    const SramEnergyModel& energy_model) {
  if (sample_input.rank() != 4 || sample_input.dim(0) < 1) {
    throw std::invalid_argument(
        "activation_memory_report: [N,C,H,W] sample input required");
  }
  // Measure per-site activation volumes with temporary capture hooks. Words
  // are counted per single input image.
  const int64_t batch = sample_input.dim(0);
  std::vector<int64_t> words(model.sites.size(), 0);
  std::vector<nn::ActivationHook> saved;
  for (size_t s = 0; s < model.sites.size(); ++s) {
    int64_t* slot = &words[s];
    model.sites[s].module->set_post_hook(
        [slot, batch](rhw::Tensor& t) { *slot = t.numel() / batch; });
  }
  const bool was_training = model.net->training();
  model.net->set_training(false);
  {
    const nn::Module::InferenceScope inference;  // a probe: no backward
    (void)model.net->forward(sample_input);
  }
  model.net->set_training(was_training);
  for (auto& site : model.sites) site.module->clear_post_hook();

  HybridWordConfig homogeneous_8t;
  homogeneous_8t.num_8t = homogeneous_8t.total_bits;

  MemoryEnergyReport report;
  for (size_t s = 0; s < model.sites.size(); ++s) {
    SiteMemorySpec spec;
    spec.label = model.sites[s].label;
    spec.words = words[s];
    spec.word = homogeneous_8t;
    for (const auto& [label, word] : noisy_sites) {
      if (label == spec.label) spec.word = word;
    }
    report.sites.push_back(spec);

    const auto n = static_cast<double>(spec.words);
    report.total_read_energy_fj +=
        n * energy_model.word_read_energy_fj(spec.word, vdd);
    report.total_area_um2 += n * energy_model.word_area_um2(spec.word);
    report.total_leakage_nw +=
        n * energy_model.word_leakage_nw(spec.word, vdd);
    report.baseline_energy_fj +=
        n * energy_model.word_read_energy_fj(homogeneous_8t,
                                             energy_model.params().nominal_vdd);
    report.baseline_area_um2 +=
        n * energy_model.word_area_um2(homogeneous_8t);
  }
  return report;
}

}  // namespace rhw::sram
