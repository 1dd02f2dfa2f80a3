// Training-loop behaviour on a small synthetic task (fast enough for CI).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/state_bits.hpp"
#include "core/serialize.hpp"
#include "core/thread_pool.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"

namespace rhw::models {
namespace {

data::SynthCifar small_data() {
  data::SynthCifarConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 40;
  cfg.test_per_class = 10;
  cfg.image_size = 16;
  cfg.noise_std = 0.12f;
  cfg.nuisance_amp = 0.15f;
  return data::make_synth_cifar(cfg);
}

Model small_vgg(int64_t classes) {
  VggConfig cfg;
  cfg.depth = 8;
  cfg.num_classes = classes;
  cfg.in_size = 16;
  cfg.width_mult = 0.125f;
  return make_vgg(cfg);
}

TEST(Training, LearnsSmallTask) {
  auto data = small_data();
  Model model = small_vgg(4);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 40;
  const double acc = train_model(model, data, cfg);
  // Chance is 25%; the easy synthetic task should be well above it.
  EXPECT_GT(acc, 0.7) << "training failed to learn the synthetic task";
}

TEST(Training, EvaluateAccuracyMatchesManualCount) {
  auto data = small_data();
  Model model = small_vgg(4);
  rhw::RandomEngine rng(3);
  nn::kaiming_init(*model.net, rng);
  model.net->set_training(false);
  const double batched = evaluate_accuracy(*model.net, data.test, 7);
  const double whole = evaluate_accuracy(*model.net, data.test, 1000);
  EXPECT_NEAR(batched, whole, 1e-9);
}

// Same seed, same bits: on the main thread (fanning out over the global
// pool) and inside a ThreadPool worker (nested calls run serially), training
// must produce identical weights, not just identical accuracy.
TEST(Training, DeterministicGivenSeed) {
  auto data = small_data();
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 40;
  cfg.seed = 42;
  Model a = small_vgg(4);
  Model b = small_vgg(4);
  const double acc_a = train_model(a, data, cfg);
  double acc_b = -1.0;
  ThreadPool pool(1);
  // Two chunks on a one-worker pool: chunk 1 always runs on the worker.
  pool.parallel_for(2, [&](int64_t begin, int64_t) {
    if (begin == 1) acc_b = train_model(b, data, cfg);
  });
  EXPECT_DOUBLE_EQ(acc_a, acc_b);
  rhw::testing::expect_same_state_bits(*a.net, *b.net);
}

TEST(Zoo, CacheRoundTrip) {
  // Point the cache at a scratch dir and verify train-once / load-after.
  const auto dir = std::filesystem::temp_directory_path() / "rhw_zoo_test";
  std::filesystem::remove_all(dir);
  setenv("RHW_ZOO_CACHE", dir.c_str(), 1);

  data::SynthCifarConfig dcfg;
  dcfg.num_classes = 3;
  dcfg.train_per_class = 30;
  dcfg.test_per_class = 10;
  dcfg.image_size = 16;
  dcfg.noise_std = 0.1f;
  // get_trained builds paper-sized inputs (32x32); give it matching data.
  dcfg.image_size = 32;
  auto data = data::make_synth_cifar(dcfg);

  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 30;
  auto first = get_trained("vgg8", "test-tiny", data, tcfg);
  EXPECT_TRUE(rhw::file_exists((dir / "vgg8_test-tiny.ckpt").string()));
  auto second = get_trained("vgg8", "test-tiny", data, tcfg);
  rhw::testing::expect_same_state_bits(*first.model.net, *second.model.net);

  unsetenv("RHW_ZOO_CACHE");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rhw::models
