#include "models/zoo.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/model_io.hpp"

#ifndef RHW_DEFAULT_CACHE_DIR
#define RHW_DEFAULT_CACHE_DIR "zoo_cache"
#endif

namespace rhw::models {

Model build_model(const std::string& arch, int64_t num_classes,
                  float width_mult, int64_t in_size) {
  if (arch == "resnet18") {
    ResNetConfig cfg;
    cfg.num_classes = num_classes;
    cfg.width_mult = width_mult;
    cfg.in_size = in_size;
    return make_resnet18(cfg);
  }
  VggConfig cfg;
  if (arch == "vgg8") {
    cfg.depth = 8;
  } else if (arch == "vgg16") {
    cfg.depth = 16;
  } else if (arch == "vgg19") {
    cfg.depth = 19;
  } else {
    throw std::invalid_argument("build_model: unknown arch " + arch);
  }
  cfg.num_classes = num_classes;
  cfg.width_mult = width_mult;
  cfg.in_size = in_size;
  return make_vgg(cfg);
}

Model clone_model(const Model& src, float width_mult, int64_t in_size) {
  Model copy = build_model(src.name, src.num_classes, width_mult, in_size);
  // state_dict traverses mutably; the source is not modified.
  auto& source = const_cast<Model&>(src);
  nn::load_state_dict(*copy.net, nn::state_dict(*source.net));
  copy.net->set_training(false);
  return copy;
}

double evaluate_accuracy(nn::Module& net, const data::Dataset& ds,
                         int64_t batch_size) {
  const bool was_training = net.training();
  net.set_training(false);
  const nn::Module::InferenceScope inference;  // no backward follows
  int64_t correct = 0;
  for (int64_t begin = 0; begin < ds.size(); begin += batch_size) {
    const auto batch = ds.slice(begin, begin + batch_size);
    const Tensor logits = net.forward(batch.images);
    const auto preds = logits.argmax_rows();
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct;
    }
  }
  net.set_training(was_training);
  return ds.size() == 0
             ? 0.0
             : static_cast<double>(correct) / static_cast<double>(ds.size());
}

double train_model(Model& model, const data::SynthCifar& data,
                   const TrainConfig& cfg) {
  rhw::RandomEngine rng(cfg.seed);
  nn::kaiming_init(*model.net, rng);
  nn::SGD opt(model.net->parameters(), cfg.sgd);
  nn::SoftmaxCrossEntropy loss;

  const int decay_epoch = std::max(1, cfg.epochs * 2 / 3);
  const int64_t warmup_steps =
      cfg.warmup ? (data.train.size() + cfg.batch_size - 1) / cfg.batch_size
                 : 0;
  int64_t step = 0;
  model.net->set_training(true);
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const float epoch_lr =
        epoch >= decay_epoch ? cfg.sgd.lr * cfg.lr_decay : cfg.sgd.lr;
    const auto order = data::shuffled_indices(data.train.size(), rng);
    double epoch_loss = 0.0;
    int64_t batches = 0;
    for (int64_t begin = 0; begin < data.train.size();
         begin += cfg.batch_size) {
      if (step < warmup_steps) {
        opt.set_lr(epoch_lr * static_cast<float>(step + 1) /
                   static_cast<float>(warmup_steps));
      } else {
        opt.set_lr(epoch_lr);
      }
      ++step;
      const int64_t end = std::min<int64_t>(begin + cfg.batch_size,
                                            data.train.size());
      std::vector<int64_t> idx(order.begin() + begin, order.begin() + end);
      const auto batch = data.train.gather(idx);
      opt.zero_grad();
      const Tensor logits = model.net->forward(batch.images);
      epoch_loss += loss.forward(logits, batch.labels);
      ++batches;
      model.net->backward(loss.backward());
      opt.step();
    }
    if (cfg.verbose) {
      std::printf("[zoo] %s epoch %d/%d  mean loss %.4f\n", model.name.c_str(),
                  epoch + 1, cfg.epochs, epoch_loss / std::max<int64_t>(1, batches));
      std::fflush(stdout);
    }
  }
  model.net->set_training(false);
  return evaluate_accuracy(*model.net, data.test, cfg.batch_size);
}

TrainConfig default_train_config(const std::string& arch,
                                 int64_t num_classes) {
  TrainConfig cfg;
  const bool deep = arch == "vgg16" || arch == "vgg19";
  cfg.sgd.lr = deep ? 0.02f : 0.05f;
  cfg.epochs = num_classes > 50 ? 8 : 5;
  return cfg;
}

std::string zoo_cache_dir() {
  // rhw-lint: allow(env) — a cache path, a deployment setting
  if (const char* env = std::getenv("RHW_ZOO_CACHE"); env && *env) return env;
  return RHW_DEFAULT_CACHE_DIR;
}

TrainedModel get_trained(const std::string& arch,
                         const std::string& dataset_name,
                         const data::SynthCifar& data,
                         std::optional<TrainConfig> maybe_cfg) {
  const TrainConfig cfg =
      maybe_cfg ? *maybe_cfg
                : default_train_config(arch, data.train.num_classes);
  TrainedModel out;
  out.model = build_model(arch, data.train.num_classes);
  const std::string path =
      zoo_cache_dir() + "/" + arch + "_" + dataset_name + ".ckpt";
  if (rhw::file_exists(path)) {
    nn::load_model(*out.model.net, path);
    out.model.net->set_training(false);
    out.test_accuracy = evaluate_accuracy(*out.model.net, data.test);
    return out;
  }
  std::printf("[zoo] training %s on %s (no cache at %s)...\n", arch.c_str(),
              dataset_name.c_str(), path.c_str());
  std::fflush(stdout);
  out.test_accuracy = train_model(out.model, data, cfg);
  nn::save_model(*out.model.net, path);
  std::printf("[zoo] %s/%s trained: clean test accuracy %.2f%%\n", arch.c_str(),
              dataset_name.c_str(), 100.0 * out.test_accuracy);
  std::fflush(stdout);
  return out;
}

}  // namespace rhw::models
