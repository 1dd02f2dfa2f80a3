// End-to-end: rhw_run's serve path produces a valid rhw-serve-v1 artifact
// with deterministic request-level results. Runs the real driver
// (run_experiment) on a shrunk serve_smoke, then schema-checks the JSON and
// re-runs to assert digest equality.
#include "serve/serve_experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment_registry.hpp"

namespace rhw::serve {
namespace {

constexpr char kArtifact[] = "BENCH_serve_itest.json";

// Shrunk serve_smoke: two load points, few requests, tiny eval head, fixed
// lane count — fast enough for CI, still three arms end to end.
const std::vector<std::string> kOverrides = {
    "qps=600,2400", "requests=32", "eval_count=16",
    "lanes=2",      "batch_max=4", std::string("out=") + kArtifact,
};

std::string read_artifact() {
  std::ifstream is(kArtifact);
  EXPECT_TRUE(is.good()) << "missing " << kArtifact;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::vector<std::string> extract_digests(const std::string& json) {
  std::vector<std::string> digests;
  const std::regex re("\"digest\":([0-9]+)");
  for (auto it = std::sregex_iterator(json.begin(), json.end(), re);
       it != std::sregex_iterator(); ++it) {
    digests.push_back((*it)[1].str());
  }
  return digests;
}

TEST(ServeExperiment, SmokePresetWritesValidServeV1Artifact) {
  std::remove(kArtifact);
  ASSERT_NO_THROW(exp::run_experiment("serve_smoke", kOverrides));
  const std::string json = read_artifact();

  // Schema stamp and provenance: the artifact embeds the exact command.
  EXPECT_NE(json.find("\"schema\":\"rhw-serve-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"preset\":\"serve_smoke\""), std::string::npos);
  EXPECT_NE(json.find("rhw_run serve_smoke"), std::string::npos);
  EXPECT_NE(json.find("\"serve=1\""), std::string::npos);  // canonical args
  EXPECT_NE(json.find("\"qps=600,2400\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":"), std::string::npos);
  EXPECT_NE(json.find("\"seed\":"), std::string::npos);
  EXPECT_NE(json.find("\"lanes\":2"), std::string::npos);
  EXPECT_NE(json.find("\"batch_max\":4"), std::string::npos);

  // All three arms with their backend/defense stamps.
  EXPECT_NE(json.find("\"key\":\"ideal\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"disc4b\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"sram\""), std::string::npos);
  EXPECT_NE(json.find("\"defense\":\"jpeg_quant:bits=4\""), std::string::npos);
  EXPECT_NE(json.find("\"defense\":\"none\""), std::string::npos);
  EXPECT_NE(json.find("\"stochastic\":true"), std::string::npos);
  EXPECT_NE(json.find("\"spec\":\"sram:"), std::string::npos);

  // Latency percentiles and offered vs achieved load on every curve point.
  for (const char* field :
       {"\"offered_qps\":", "\"achieved_qps\":", "\"p50_us\":", "\"p95_us\":",
        "\"p99_us\":", "\"mean_batch\":", "\"accuracy\":", "\"completed\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // 3 arms x 2 load points.
  size_t points = 0;
  for (size_t pos = 0; (pos = json.find("\"offered_qps\":", pos)) !=
                       std::string::npos;
       ++pos) {
    ++points;
  }
  EXPECT_EQ(points, 6u);

  // One digest per arm, enforced identical across the arm's load points by
  // the runner itself (it throws if batching leaked into results).
  EXPECT_EQ(extract_digests(json).size(), 3u);
}

TEST(ServeExperiment, RerunReproducesRequestLevelDigests) {
  std::remove(kArtifact);
  exp::run_experiment("serve_smoke", kOverrides);
  const std::vector<std::string> first = extract_digests(read_artifact());
  std::remove(kArtifact);
  exp::run_experiment("serve_smoke", kOverrides);
  const std::vector<std::string> second = extract_digests(read_artifact());
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace rhw::serve
