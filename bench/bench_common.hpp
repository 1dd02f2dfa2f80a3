// Shared setup for the standalone ablation benches. The figure/table
// experiments are exp::ExperimentRegistry presets run as `rhw_run <preset>`
// (tools/rhw_run.cpp) and use none of this.
#pragma once

#include <cstdio>
#include <string>

#include "data/synth_cifar.hpp"
#include "exp/table_printer.hpp"
#include "models/zoo.hpp"

namespace rhw::bench {

struct Workbench {
  data::SynthCifar data;
  models::TrainedModel trained;
  data::Dataset eval_set;  // first `eval_count` test images
};

inline Workbench load_workbench(const std::string& arch,
                                const std::string& dataset,
                                int64_t eval_count = 256) {
  Workbench wb;
  wb.data = data::make_dataset_by_name(dataset);
  wb.trained = models::get_trained(arch, dataset, wb.data);
  wb.eval_set = wb.data.test.head(eval_count);
  return wb;
}

inline void banner(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
  std::fflush(stdout);
}

}  // namespace rhw::bench
