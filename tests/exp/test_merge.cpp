// rhw_merge's artifact layer: load -> merge -> rewrite round-trips, the
// negative paths (mismatched canonical spec / engine stamp, duplicate cells,
// pre-v4 schemas, incomplete unions — each a token-precise error), and the
// order-independence of compute_aggregates that makes merging sound.
#include "exp/artifact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "data/synth_cifar.hpp"
#include "exp/experiment_registry.hpp"
#include "exp/sweep.hpp"
#include "models/zoo.hpp"

namespace rhw::exp {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string payload(const SweepResult& result, const std::string& figure) {
  std::ostringstream os;
  result.write_json(os, figure, /*payload_only=*/true);
  return os.str();
}

TEST(ParseJson, KeepsRawNumberTextForFullWidthSeeds) {
  const auto doc = parse_json(
      R"({"seed":12038779482742973907,"f":46.899999999999999,"neg":-3})");
  EXPECT_EQ(doc.at("seed").number_u64(), 12038779482742973907ull);
  EXPECT_EQ(doc.at("f").number(), 46.899999999999999);
  EXPECT_EQ(doc.at("neg").number_i64(), -3);
  EXPECT_THROW((void)parse_json("{\"torn\":tru"), std::runtime_error);
  EXPECT_THROW((void)parse_json("{} trailing"), std::runtime_error);
}

// One small engine run with a stamp: the source of every artifact below.
class MergeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthCifarConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.train_per_class = 4;
    dcfg.test_per_class = 12;
    dcfg.image_size = 16;
    data_ = new data::SynthCifar(data::make_synth_cifar(dcfg));
    model_ = new models::Model(models::build_model("vgg8", 4, 0.125f, 16));
    model_->net->set_training(false);

    SweepGrid grid;
    grid.model = model_;
    grid.width_mult = 0.125f;
    grid.in_size = 16;
    grid.eval_set = &data_->test;
    grid.base.batch_size = 16;
    grid.trials = 2;
    grid.backends.push_back({"ideal", "ideal"});
    grid.backends.push_back({"sram", "sram:sites=2,num_8t=2,vdd=0.6"});
    grid.modes.push_back({"Attack-SW", "ideal", "ideal"});
    grid.modes.push_back({"SH-sram", "ideal", "sram"});
    grid.attacks.push_back({"fgsm", {0.f, 0.1f}});
    SweepEngine::Options opt;
    opt.threads = 2;
    SweepEngine engine(opt);
    full_ = new SweepResult(engine.run(grid));
    full_->experiment = make_stamp();
  }
  static void TearDownTestSuite() {
    delete full_;
    delete model_;
    delete data_;
    full_ = nullptr;
    model_ = nullptr;
    data_ = nullptr;
  }

  static ExperimentStamp make_stamp() {
    ExperimentStamp stamp;
    stamp.preset = "merge_unit";
    stamp.canonical = {"panels+=vgg8/tiny", "engine=naive",
                       "trials=2", "seed=12345", "out=BENCH_merge_unit.json"};
    return stamp;
  }

  // Writes the cells with index % count == index as one shard artifact.
  static std::string write_shard(const std::string& name, size_t index,
                                 size_t count) {
    SweepResult shard = *full_;
    shard.cells.clear();
    for (const auto& cell : full_->cells) {
      if (cell.index % count == index) shard.cells.push_back(cell);
    }
    shard.aggregates = compute_aggregates(shard);
    shard.experiment.shard_index = index;
    shard.experiment.shard_count = count;
    const std::string path = temp_path(name);
    shard.write_json(path, "merge_test");
    return path;
  }

  static data::SynthCifar* data_;
  static models::Model* model_;
  static SweepResult* full_;
};

data::SynthCifar* MergeTest::data_ = nullptr;
models::Model* MergeTest::model_ = nullptr;
SweepResult* MergeTest::full_ = nullptr;

TEST_F(MergeTest, LoadRoundTripsTheFullArtifact) {
  const std::string path = temp_path("rhw_merge_full.json");
  full_->write_json(path, "merge_test");
  const SweepArtifact loaded = load_sweep_artifact(path);
  EXPECT_EQ(loaded.figure, "merge_test");
  EXPECT_EQ(loaded.result.experiment.preset, "merge_unit");
  EXPECT_EQ(loaded.result.cells_total, full_->cells.size());
  // The acceptance property behind --payload: load -> rewrite is
  // byte-stable (raw number text + %.17g round-trip).
  EXPECT_EQ(payload(loaded.result, loaded.figure),
            payload(*full_, "merge_test"));
  fs::remove(path);
}

TEST_F(MergeTest, MergingShardsReproducesThePayloadByteForByte) {
  const std::string a = write_shard("rhw_merge_s0.json", 0, 2);
  const std::string b = write_shard("rhw_merge_s1.json", 1, 2);
  std::string figure;
  const SweepResult merged =
      merge_artifacts({load_sweep_artifact(a), load_sweep_artifact(b)},
                      &figure);
  EXPECT_EQ(figure, "merge_test");
  EXPECT_EQ(payload(merged, figure), payload(*full_, "merge_test"));
  // The merged stamp: full grid again, provenance kept, per-shard out=
  // dropped so a re-run reproduces the *unsharded* artifact.
  EXPECT_EQ(merged.experiment.shard_count, 1u);
  EXPECT_EQ(merged.experiment.merged_shards, 2u);
  for (const auto& token : merged.experiment.canonical) {
    EXPECT_EQ(token.rfind("out=", 0), std::string::npos) << token;
  }
  fs::remove(a);
  fs::remove(b);
}

TEST_F(MergeTest, ShardOrderDoesNotMatter) {
  const std::string a = write_shard("rhw_merge_o0.json", 0, 2);
  const std::string b = write_shard("rhw_merge_o1.json", 1, 2);
  const SweepResult merged =
      merge_artifacts({load_sweep_artifact(b), load_sweep_artifact(a)});
  EXPECT_EQ(payload(merged, "merge_test"), payload(*full_, "merge_test"));
  fs::remove(a);
  fs::remove(b);
}

TEST_F(MergeTest, MismatchedCanonicalSpecRefuses) {
  const std::string a = write_shard("rhw_merge_c0.json", 0, 2);
  const std::string b = temp_path("rhw_merge_c1.json");
  {
    SweepResult other = *full_;
    other.cells.erase(
        std::remove_if(other.cells.begin(), other.cells.end(),
                       [](const SweepCell& c) { return c.index % 2 == 0; }),
        other.cells.end());
    other.experiment.shard_index = 1;
    other.experiment.shard_count = 2;
    other.experiment.canonical[2] = "trials=3";  // not the same experiment
    other.write_json(b, "merge_test");
  }
  try {
    (void)merge_artifacts({load_sweep_artifact(a), load_sweep_artifact(b)});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("canonical spec mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("trials=2"), std::string::npos) << what;
    EXPECT_NE(what.find("trials=3"), std::string::npos) << what;
  }
  fs::remove(a);
  fs::remove(b);
}

TEST_F(MergeTest, MismatchedEngineStampRefusesBeforeSpecDiff) {
  const std::string a = write_shard("rhw_merge_e0.json", 0, 2);
  const std::string b = temp_path("rhw_merge_e1.json");
  {
    SweepResult other = *full_;
    other.cells.erase(
        std::remove_if(other.cells.begin(), other.cells.end(),
                       [](const SweepCell& c) { return c.index % 2 == 0; }),
        other.cells.end());
    other.experiment.shard_index = 1;
    other.experiment.shard_count = 2;
    other.experiment.canonical[1] = "engine=simd:mr=8,nr=8";
    other.write_json(b, "merge_test");
  }
  try {
    (void)merge_artifacts({load_sweep_artifact(a), load_sweep_artifact(b)});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("engine stamp mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("engine=naive"), std::string::npos) << what;
    EXPECT_NE(what.find("engine=simd:mr=8,nr=8"), std::string::npos) << what;
  }
  fs::remove(a);
  fs::remove(b);
}

TEST_F(MergeTest, DuplicateCellsRefuse) {
  const std::string a = write_shard("rhw_merge_d0.json", 0, 2);
  try {
    (void)merge_artifacts({load_sweep_artifact(a), load_sweep_artifact(a)});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate cell index"),
              std::string::npos)
        << e.what();
  }
  fs::remove(a);
}

TEST_F(MergeTest, IncompleteUnionRefusesNamingTheMissingCell) {
  const std::string a = write_shard("rhw_merge_i0.json", 0, 2);
  try {
    (void)merge_artifacts({load_sweep_artifact(a)});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("merge incomplete: missing cell index 1"),
              std::string::npos)
        << what;
  }
  fs::remove(a);
}

TEST_F(MergeTest, PreV4SchemaRefusesByName) {
  const std::string path = temp_path("rhw_merge_v3.json");
  full_->write_json(path, "merge_test");
  std::string text = read_file(path);
  const size_t pos = text.find("rhw-sweep-v4");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "rhw-sweep-v3");
  {
    std::ofstream os(path, std::ios::trunc);
    os << text;
  }
  try {
    (void)load_sweep_artifact(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rhw-sweep-v3"), std::string::npos) << what;
    EXPECT_NE(what.find("rhw-sweep-v4"), std::string::npos) << what;
  }
  fs::remove(path);
}

TEST_F(MergeTest, StamplessArtifactRefusesToMerge) {
  const std::string path = temp_path("rhw_merge_nostamp.json");
  SweepResult bare = *full_;
  bare.experiment = ExperimentStamp{};
  bare.write_json(path, "merge_test");
  try {
    (void)merge_artifacts({load_sweep_artifact(path)});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no experiment stamp"),
              std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST_F(MergeTest, DiffRendersCanonicalSpecDifference) {
  const std::string a = temp_path("rhw_diff_a.json");
  const std::string b = temp_path("rhw_diff_b.json");
  full_->write_json(a, "merge_test");
  {
    SweepResult other = *full_;
    other.experiment.canonical[2] = "trials=5";
    other.write_json(b, "merge_test");
  }
  const SweepArtifact art_a = load_sweep_artifact(a);
  const SweepArtifact art_b = load_sweep_artifact(b);
  EXPECT_EQ(diff_artifacts(art_a, art_a), "");
  const std::string diff = diff_artifacts(art_a, art_b);
  EXPECT_NE(diff.find("- trials=2"), std::string::npos) << diff;
  EXPECT_NE(diff.find("+ trials=5"), std::string::npos) << diff;
  fs::remove(a);
  fs::remove(b);
}

// Driver-level parity: run a tiny registered preset unsharded and as two
// --shard halves through run_experiment, fuse the shard artifacts, and
// require the merged results payload byte-identical to the single-process
// artifact — the in-tree version of CI's 3-shard fig8bc step.
TEST(MergeDriver, ShardedRunsMergeToTheSingleProcessPayload) {
  const std::string out =
      temp_path("rhw_merge_driver/BENCH_merge_driver.json");
  fs::remove_all(fs::path(out).parent_path());
  ExperimentRegistry::instance().add("merge_driver_unit", [out] {
    ExperimentSpec spec;
    spec.title = "shard/merge driver unit";
    spec.panels.push_back(
        {"vgg8:width=0.125,in=16", "tiny:classes=4,train=4,test=8,size=16"});
    spec.train = "none";
    spec.eval_count = 16;
    spec.batch = 16;
    spec.trials = 2;
    spec.backends.push_back({"ideal", "ideal", ""});
    spec.backends.push_back({"sram", "sram:sites=2,num_8t=2,vdd=0.6", ""});
    spec.modes.push_back({"Attack-SW", "ideal", "ideal"});
    spec.modes.push_back({"SH-sram", "ideal", "sram"});
    spec.attacks.push_back({"fgsm", {0.f, 0.1f}});
    spec.out = out;
    return spec;
  });

  (void)run_experiment("merge_driver_unit");
  RunOptions half;
  half.shard_count = 2;
  for (size_t i = 0; i < 2; ++i) {
    half.shard_index = i;
    const auto results = run_experiment("merge_driver_unit", {}, half);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].experiment.shard_index, i);
    EXPECT_EQ(results[0].experiment.shard_count, 2u);
  }

  const SweepArtifact single = load_sweep_artifact(out);
  const std::string stem = out.substr(0, out.size() - 5);
  const SweepArtifact s0 = load_sweep_artifact(stem + "_shard0of2.json");
  const SweepArtifact s1 = load_sweep_artifact(stem + "_shard1of2.json");
  EXPECT_EQ(s0.result.experiment.command().find("--shard=0/2") !=
                std::string::npos,
            true)
      << s0.result.experiment.command();
  std::string figure;
  const SweepResult merged = merge_artifacts({s0, s1}, &figure);
  EXPECT_EQ(merged.experiment.merged_shards, 2u);
  EXPECT_EQ(payload(merged, figure), payload(single.result, single.figure));
  fs::remove_all(fs::path(out).parent_path());
}

// The ordering regression behind the merge design: aggregates are a pure
// function of the cell *set*. The engine's historical loop assumed
// trial-major storage order; compute_aggregates must not.
TEST_F(MergeTest, ComputeAggregatesIsCellOrderIndependent) {
  SweepResult scrambled = *full_;
  std::reverse(scrambled.cells.begin(), scrambled.cells.end());
  const auto aggs = compute_aggregates(scrambled);
  ASSERT_EQ(aggs.size(), full_->aggregates.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    EXPECT_EQ(aggs[i].mode, full_->aggregates[i].mode);
    EXPECT_EQ(aggs[i].attack, full_->aggregates[i].attack);
    EXPECT_EQ(aggs[i].eps_index, full_->aggregates[i].eps_index);
    EXPECT_EQ(aggs[i].clean.mean, full_->aggregates[i].clean.mean);
    EXPECT_EQ(aggs[i].clean.ci95, full_->aggregates[i].clean.ci95);
    EXPECT_EQ(aggs[i].adv.mean, full_->aggregates[i].adv.mean);
    EXPECT_EQ(aggs[i].al.mean, full_->aggregates[i].al.mean);
    EXPECT_EQ(aggs[i].cert.mean, full_->aggregates[i].cert.mean);
  }
}

}  // namespace
}  // namespace rhw::exp
