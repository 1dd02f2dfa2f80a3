// rhw_run's flag surface: parse_run_flag's token-precise errors, and the
// --dry-run listing locked to checked-in goldens (tests/exp/goldens/) for
// two env-independent presets — the cell enumeration IS the sharding
// contract, so its text form must never drift silently.
#include "exp/experiment_registry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rhw::exp {
namespace {

std::string read_golden(const std::string& name) {
  const auto path = std::filesystem::path(RHW_SOURCE_DIR) / "tests" / "exp" /
                    "goldens" / name;
  std::ifstream is(path);
  EXPECT_TRUE(is) << "missing golden " << path
                  << " (regenerate with rhw_run --dry-run)";
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(ParseRunFlag, RecognizesTheRunFlags) {
  RunOptions run;
  EXPECT_TRUE(parse_run_flag("--resume", run));
  EXPECT_TRUE(run.resume);
  EXPECT_TRUE(parse_run_flag("--dry-run", run));
  EXPECT_TRUE(run.dry_run);
  EXPECT_TRUE(parse_run_flag("--shard=2/5", run));
  EXPECT_EQ(run.shard_index, 2u);
  EXPECT_EQ(run.shard_count, 5u);
  EXPECT_FALSE(parse_run_flag("--frobnicate", run));
  EXPECT_FALSE(parse_run_flag("--list", run));
}

TEST(ParseRunFlag, MalformedShardValuesThrowNamingTheToken) {
  for (const char* bad : {"--shard=", "--shard=1", "--shard=/3", "--shard=1/",
                          "--shard=a/b", "--shard=1/3/5", "--shard=-1/3",
                          "--shard=3/3", "--shard=4/3", "--shard=1/0"}) {
    RunOptions run;
    try {
      (void)parse_run_flag(bad, run);
      FAIL() << "expected std::invalid_argument for " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
}

// The goldens: byte-for-byte listings for an unsharded and a sharded
// dry run. Presets read nothing from the environment, so the listing is a
// pure function of the preset — any drift in enumeration order, seed
// derivation, or listing format fails here.
TEST(DryRunListing, SweepSmokeMatchesGolden) {
  const ExperimentSpec spec =
      ExperimentRegistry::instance().preset("sweep_smoke");
  EXPECT_EQ(dry_run_listing(spec), read_golden("dryrun_sweep_smoke.txt"));
}

TEST(DryRunListing, AblationAdaptiveShardedMatchesGolden) {
  const ExperimentSpec spec =
      ExperimentRegistry::instance().preset("ablation_adaptive");
  EXPECT_EQ(dry_run_listing(spec, 1, 3),
            read_golden("dryrun_ablation_adaptive_shard1of3.txt"));
}

TEST(DryRunListing, ServeSpecsAndBadShardsThrow) {
  const ExperimentSpec serve =
      ExperimentRegistry::instance().preset("serve_smoke");
  EXPECT_THROW((void)dry_run_listing(serve), std::invalid_argument);
  const ExperimentSpec spec =
      ExperimentRegistry::instance().preset("sweep_smoke");
  EXPECT_THROW((void)dry_run_listing(spec, 3, 3), std::invalid_argument);
}

}  // namespace
}  // namespace rhw::exp
