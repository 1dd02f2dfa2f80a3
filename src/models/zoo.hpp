// Model zoo: builds, trains, caches and evaluates the paper's four networks.
//
// Training a model takes minutes on CPU, so every binary (tests, benches,
// examples) shares one on-disk cache of trained weights keyed by
// "<arch>_<dataset>". The default cache directory is <build>/zoo_cache
// (compile-time constant), overridable with the RHW_ZOO_CACHE env var.
#pragma once

#include <optional>
#include <string>

#include "data/synth_cifar.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "nn/optimizer.hpp"

namespace rhw::models {

struct TrainConfig {
  int epochs = 5;
  int64_t batch_size = 100;
  nn::SgdConfig sgd{};       // lr 0.05, momentum 0.9, wd 5e-4
  float lr_decay = 0.1f;     // applied once at 2/3 of training
  // Linear LR warmup over the first epoch; deep thin VGGs diverge without it.
  bool warmup = true;
  uint64_t seed = 7;
  bool verbose = false;
};

// Architecture/dataset-aware defaults used by get_trained: deeper nets get a
// lower base LR, 100-class runs get more epochs.
TrainConfig default_train_config(const std::string& arch,
                                 int64_t num_classes);

// Builds an untrained model. arch in {vgg8, vgg16, vgg19, resnet18}.
Model build_model(const std::string& arch, int64_t num_classes,
                  float width_mult = 0.25f, int64_t in_size = 32);

// Deep copy of a model (weights + non-trainable buffers such as BatchNorm
// statistics), returned in eval mode. width_mult/in_size must match how src
// was built — Model does not record them, so callers using non-default
// builds pass them explicitly.
Model clone_model(const Model& src, float width_mult = 0.25f,
                  int64_t in_size = 32);

// Clean accuracy (0..1) of net over ds, batched, eval mode. Restores the
// module's previous training flag afterwards.
double evaluate_accuracy(nn::Module& net, const data::Dataset& ds,
                         int64_t batch_size = 100);

// Trains in place; returns final test accuracy (0..1).
double train_model(Model& model, const data::SynthCifar& data,
                   const TrainConfig& cfg);

struct TrainedModel {
  Model model;
};

// Load-or-train entry point used by all experiments. dataset_name is the key
// for the cache file ("synth-c10" / "synth-c100"). Without an explicit
// config, default_train_config(arch, classes) is used. A cache hit only
// loads the weights; it runs no evaluation.
TrainedModel get_trained(const std::string& arch,
                         const std::string& dataset_name,
                         const data::SynthCifar& data,
                         std::optional<TrainConfig> cfg = std::nullopt);

std::string zoo_cache_dir();

}  // namespace rhw::models
