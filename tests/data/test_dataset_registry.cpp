// The sixth seam's contract: the dataset registry speaks the same spec
// grammar and token-naming error shape as the other five registries, routes
// the legacy generator names bit-identically, and caches loads by canonical
// spec.
#include "data/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "data/synth_cifar.hpp"

namespace rhw::data {
namespace {

constexpr const char* kTiny = "tiny:classes=4,train=8,test=3,size=16";

TEST(DatasetRegistry, KeysAreSortedAndContainTheBuiltins) {
  auto& registry = DatasetRegistry::instance();
  const auto keys = registry.keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (const char* key :
       {"cifar10", "mnist", "synth-c10", "synth-c100", "synth_cifar", "tiny"}) {
    EXPECT_TRUE(registry.contains(key)) << key;
  }
  EXPECT_FALSE(registry.contains("imagenet"));
}

// Error parity with the other five seams: unknown keys name the token and
// list what is registered.
TEST(DatasetRegistry, UnknownKeyNamesTokenAndListsKeys) {
  try {
    (void)make_dataset_provider("imagenet");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown dataset 'imagenet'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
    EXPECT_NE(what.find("cifar10"), std::string::npos) << what;
    EXPECT_NE(what.find("synth-c10"), std::string::npos) << what;
  }
}

// Option errors are wrapped with the full offending spec, like the hardware
// registry wraps its factory errors.
TEST(DatasetRegistry, OptionErrorsCarryTheFullSpec) {
  try {
    // rhw-lint: allow(spec) stale on purpose — synth-c10 takes no options
    (void)make_dataset_provider("synth-c10:classes=4");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dataset spec 'synth-c10:classes=4':"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("classes"), std::string::npos) << what;
  }
  // rhw-lint: allow(spec) stale on purpose — degenerate geometry
  EXPECT_THROW(make_dataset_provider("tiny:classes=1"), std::invalid_argument);
  // rhw-lint: allow(spec) stale on purpose — unknown option
  EXPECT_THROW(make_dataset_provider("tiny:sides=3"), std::invalid_argument);
  // rhw-lint: allow(spec) stale on purpose — non-numeric value
  EXPECT_THROW(make_dataset_provider("tiny:classes=abc"),
               std::invalid_argument);
}

TEST(DatasetRegistry, WrapperErrorsNameTheSeam) {
  try {
    // rhw-lint: allow(spec) — unknown wrapper, stale on purpose
    (void)make_dataset_provider("tiny+noise:kind=fog");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown dataset wrapper 'noise'"),
              std::string::npos)
        << e.what();
  }
  // rhw-lint: allow(spec) — missing kind, stale on purpose
  EXPECT_THROW(make_dataset_provider("tiny+corrupt:sev=2"),
               std::invalid_argument);
  // rhw-lint: allow(spec) — negative-path probe, stale on purpose
  EXPECT_THROW(make_dataset_provider("tiny+corrupt:kind=melt,sev=1"),
               std::invalid_argument);
  // rhw-lint: allow(spec) — severity below range, stale on purpose
  EXPECT_THROW(make_dataset_provider("tiny+corrupt:kind=fog,sev=0"),
               std::invalid_argument);
  // rhw-lint: allow(spec) — severity above range, stale on purpose
  EXPECT_THROW(make_dataset_provider("tiny+corrupt:kind=fog,sev=6"),
               std::invalid_argument);
}

// The wrapper is split off before the base factory runs, yet an option error
// on either side of the '+' names the full spec the caller passed.
TEST(DatasetRegistry, WrappedOptionErrorsCarryTheFullSpec) {
  const std::pair<std::string, std::string> cases[] = {
      // rhw-lint: allow(spec) — bad base option, stale on purpose
      {"tiny:sides=3+corrupt:kind=fog,sev=3", "sides"},
      // rhw-lint: allow(spec) — bad wrapper option, stale on purpose
      {"tiny+corrupt:kind=melt,sev=1", "melt"},
  };
  for (const auto& [spec, token] : cases) {
    try {
      (void)make_dataset_provider(spec);
      ADD_FAILURE() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("dataset spec '" + spec + "': ", 0), 0u) << what;
      EXPECT_NE(what.find(token), std::string::npos) << what;
    }
  }
}

TEST(DatasetRegistry, TagsMatchTheLegacyCacheKeys) {
  EXPECT_EQ(make_dataset_provider("synth-c10")->tag(), "synth-c10");
  EXPECT_EQ(make_dataset_provider("synth-c100")->tag(), "synth-c100");
  EXPECT_EQ(make_dataset_provider(kTiny)->tag(), "tiny-c4");
  EXPECT_EQ(make_dataset_provider("cifar10:dir=/nope")->tag(), "cifar10");
  EXPECT_EQ(make_dataset_provider("mnist")->tag(), "mnist");
  EXPECT_EQ(
      make_dataset_provider(std::string(kTiny) + "+corrupt:kind=fog,sev=3")
          ->tag(),
      "tiny-c4+fog3");
}

// The registry path must be bit-identical to the legacy factory the bench
// harnesses used — the zoo cache and every golden figure depend on it.
TEST(DatasetRegistry, SynthC10MatchesLegacyFactoryBitwise) {
  const SynthCifar legacy = make_dataset_by_name("synth-c10");
  const SynthCifar routed = make_dataset_provider("synth-c10")->load();
  ASSERT_EQ(routed.train.size(), legacy.train.size());
  ASSERT_EQ(routed.test.size(), legacy.test.size());
  for (int64_t i = 0; i < legacy.train.images.numel(); ++i) {
    ASSERT_EQ(routed.train.images[i], legacy.train.images[i]);
  }
  for (int64_t i = 0; i < legacy.test.images.numel(); ++i) {
    ASSERT_EQ(routed.test.images[i], legacy.test.images[i]);
  }
  EXPECT_EQ(routed.train.labels, legacy.train.labels);
  EXPECT_EQ(routed.test.labels, legacy.test.labels);
}

// An identically-geometried tiny spec routes through the same generator as
// the old parse_dataset_section tiny path did.
TEST(DatasetRegistry, TinyMatchesTheGeneratorConfigBitwise) {
  SynthCifarConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 8;
  cfg.test_per_class = 3;
  cfg.image_size = 16;
  const SynthCifar direct = make_synth_cifar(cfg);
  const SynthCifar routed = make_dataset_provider(kTiny)->load();
  ASSERT_EQ(routed.train.images.numel(), direct.train.images.numel());
  for (int64_t i = 0; i < direct.train.images.numel(); ++i) {
    ASSERT_EQ(routed.train.images[i], direct.train.images[i]);
  }
  EXPECT_EQ(routed.train.labels, direct.train.labels);
}

TEST(DatasetRegistry, CanonicalSpecSortsOptionsAndKeepsTheWrapper) {
  EXPECT_EQ(canonical_dataset_spec("tiny:train=8,classes=4,test=3,size=16"),
            "tiny:classes=4,size=16,test=3,train=8");
  EXPECT_EQ(canonical_dataset_spec("tiny:train=8,classes=4,test=3,size=16"
                                   "+corrupt:sev=3,kind=fog"),
            "tiny:classes=4,size=16,test=3,train=8+corrupt:kind=fog,sev=3");
  EXPECT_EQ(canonical_dataset_spec("synth-c10"), "synth-c10");
}

TEST(DatasetRegistry, SplitRuleNeverSplitsNumericPlus) {
  const auto [base, wrapper] =
      // rhw-lint: allow(spec) stale on purpose — 1e+5 probes the '+' split
      split_corrupt_spec("synth_cifar:seed=1e+5,classes=4");
  // rhw-lint: allow(spec) stale on purpose — 1e+5 probes the '+' split rule
  EXPECT_EQ(base, "synth_cifar:seed=1e+5,classes=4");
  EXPECT_TRUE(wrapper.empty());
  const auto [b2, w2] = split_corrupt_spec("tiny+corrupt:kind=fog,sev=1");
  EXPECT_EQ(b2, "tiny");
  EXPECT_EQ(w2, "corrupt:kind=fog,sev=1");
}

// load_dataset caches by canonical spec: spelling variants of one dataset
// return the same in-memory copy (same address).
TEST(DatasetRegistry, LoadDatasetCachesByCanonicalSpec) {
  const SynthCifar& a = load_dataset(kTiny);
  const SynthCifar& b =
      load_dataset("tiny:train=8,test=3,size=16,classes=4");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.train.size(), 32);
  EXPECT_EQ(a.test.size(), 12);
  const SynthCifar& c =
      load_dataset(std::string(kTiny) + "+corrupt:kind=fog,sev=2");
  EXPECT_NE(&a, &c);
}

}  // namespace
}  // namespace rhw::data
