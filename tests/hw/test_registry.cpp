#include "hw/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "hw/sram_backend.hpp"
#include "hw/xbar_backend.hpp"
#include "models/zoo.hpp"

namespace rhw {
namespace {

TEST(BackendRegistry, BuiltinsRegistered) {
  const auto keys = hw::BackendRegistry::instance().keys();
  for (const char* expected : {"ideal", "sram", "xbar"}) {
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), expected) != keys.end())
        << expected;
    EXPECT_TRUE(hw::BackendRegistry::instance().contains(expected));
  }
}

TEST(BackendRegistry, UnknownKeyThrows) {
  EXPECT_THROW(hw::make_backend("tpu"), std::invalid_argument);
}

TEST(BackendRegistry, UnknownOptionThrows) {
  EXPECT_THROW(hw::make_backend("xbar:bogus=1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(hw::make_backend("sram:vdd=abc"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(hw::make_backend("ideal:x=1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(hw::make_backend("xbar:retain_tiles=1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

TEST(BackendRegistry, MalformedOptionThrows) {
  EXPECT_THROW(hw::make_backend("xbar:size"), std::invalid_argument);
}

// Parse failures must name the offending key, the bad value, AND the full
// spec string (regression: they used to surface as bare std::stod errors).
TEST(BackendRegistry, ParseErrorNamesKeyValueAndSpec) {
  try {
    hw::make_backend("xbar:size=32,rmin=abc");  // rhw-lint: allow(spec) stale on purpose
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rmin"), std::string::npos) << msg;
    EXPECT_NE(msg.find("abc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("xbar:size=32,rmin=abc"), std::string::npos) << msg;  // rhw-lint: allow(spec) stale on purpose
  }
  try {
    hw::make_backend("sram:sites=3junk");  // rhw-lint: allow(spec) stale on purpose
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sites"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3junk"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sram:sites=3junk"), std::string::npos) << msg;  // rhw-lint: allow(spec) stale on purpose
  }
}

// Trailing garbage after a numeric value is rejected, not silently truncated.
TEST(BackendRegistry, TrailingGarbageRejected) {
  EXPECT_THROW(hw::make_backend("sram:vdd=0.68volts"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(hw::make_backend("xbar:rmin=10e3 "), std::invalid_argument);
  EXPECT_THROW(hw::make_backend("xbar:adc_bits=5.5"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

TEST(BackendRegistry, ReplicateReproducesConfig) {
  auto backend = hw::make_backend("xbar:size=16,rmin=10e3,adc_bits=6");
  auto replica = backend->replicate();
  ASSERT_NE(replica, nullptr);
  const auto* xb = dynamic_cast<const hw::XbarBackend*>(replica.get());
  ASSERT_NE(xb, nullptr);
  EXPECT_EQ(xb->config().spec.rows, 16);
  EXPECT_DOUBLE_EQ(xb->config().spec.r_min, 10e3);
  EXPECT_EQ(xb->config().adc_bits, 6);
  EXPECT_FALSE(replica->prepared());

  // SramBackend carries its installed selection into the replica, so replica
  // prepare() skips the calibration-driven selector.
  models::Model model = models::build_model("vgg8", 10, 0.125f, 16);
  auto sram = hw::make_backend("sram:sites=2");
  sram->prepare(model);
  auto sram_replica = sram->replicate();
  ASSERT_NE(sram_replica, nullptr);
  const auto* sb = dynamic_cast<const hw::SramBackend*>(sram_replica.get());
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->config().selection.size(), 2u);
}

TEST(BackendRegistry, NegativeIntegerOptionThrows) {
  EXPECT_THROW(hw::make_backend("xbar:size=-1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(hw::make_backend("sram:sites=-2"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

TEST(BackendRegistry, XbarOptionsParse) {
  auto backend = hw::make_backend(
      "xbar:size=16,rmin=10e3,adc_bits=6,grad_noise=0,model=ideal");
  const auto* xb = dynamic_cast<const hw::XbarBackend*>(backend.get());
  ASSERT_NE(xb, nullptr);
  EXPECT_EQ(xb->name(), "xbar");
  EXPECT_EQ(xb->config().spec.rows, 16);
  EXPECT_EQ(xb->config().spec.cols, 16);
  EXPECT_DOUBLE_EQ(xb->config().spec.r_min, 10e3);
  // rmin moved with constant ON/OFF ratio.
  EXPECT_DOUBLE_EQ(xb->config().spec.r_max, 100e3);
  EXPECT_EQ(xb->config().adc_bits, 6);
  EXPECT_DOUBLE_EQ(xb->config().grad_noise_scale, 0.0);
  EXPECT_EQ(xb->config().model, xbar::CircuitModel::kIdeal);
}

TEST(BackendRegistry, SramOptionsParse) {
  auto backend = hw::make_backend("sram:vdd=0.8,sites=3,num_8t=6");
  const auto* sb = dynamic_cast<const hw::SramBackend*>(backend.get());
  ASSERT_NE(sb, nullptr);
  EXPECT_DOUBLE_EQ(sb->config().vdd, 0.8);
  EXPECT_EQ(sb->config().default_sites, 3);
  EXPECT_EQ(sb->config().default_word.num_8t, 6);
  EXPECT_EQ(sb->config().memory, hw::SramMemory::kActivations);
  EXPECT_EQ(sb->config().selector.epsilon, 0.f);  // by class count

  auto weights = hw::make_backend("sram:memory=weights");
  const auto* wb = dynamic_cast<const hw::SramBackend*>(weights.get());
  ASSERT_NE(wb, nullptr);
  EXPECT_EQ(wb->config().memory, hw::SramMemory::kWeights);
  EXPECT_THROW(hw::make_backend("sram:memory=caches"),  // rhw-lint: allow(spec) stale on purpose
               std::invalid_argument);
}

TEST(BackendRegistry, ModuleBeforePrepareThrows) {
  auto backend = hw::make_backend("ideal");
  EXPECT_THROW(backend->module(), std::logic_error);
  EXPECT_FALSE(backend->prepared());
}

TEST(BackendRegistry, PrepareOnBareModuleDerivesSites) {
  models::Model model = models::build_model("vgg8", 10, 0.125f, 16);
  auto backend = hw::make_backend("sram:sites=2");
  backend->prepare(*model.net);  // bare-module path, heuristic sites
  EXPECT_TRUE(backend->prepared());
  const auto* sb = dynamic_cast<const hw::SramBackend*>(backend.get());
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->selection().size(), 2u);
}

TEST(BackendRegistry, DeriveActivationSitesFindsReluAndPool) {
  models::Model model = models::build_model("vgg8", 10, 0.125f, 16);
  const auto derived = hw::derive_activation_sites(*model.net);
  // VGG8: 6 conv ReLUs + 3 pools in the feature stack, 1 classifier ReLU.
  EXPECT_GE(derived.size(), model.sites.size());
  size_t pools = 0;
  for (const auto& site : derived) {
    if (site.label.find("(P)") != std::string::npos) ++pools;
  }
  EXPECT_EQ(pools, 3u);
}

TEST(BackendRegistry, EnergyReportsPopulated) {
  models::Model model = models::build_model("vgg8", 10, 0.125f, 16);
  auto backend = hw::make_backend("xbar:size=32");
  backend->prepare(model);
  const auto report = backend->energy_report();
  EXPECT_EQ(report.backend, "xbar");
  EXPECT_GT(report.energy_nj, 0.0);
  EXPECT_GT(report.area_um2, 0.0);
  EXPECT_FALSE(report.details.empty());
  EXPECT_NE(report.summary().find("xbar"), std::string::npos);
}

TEST(BackendRegistry, CustomBackendRegistration) {
  hw::BackendRegistry::instance().add("custom-ideal",
                                      [](const hw::BackendOptions&) {
                                        return hw::make_backend("ideal");
                                      });
  auto backend = hw::make_backend("custom-ideal");
  EXPECT_EQ(backend->name(), "ideal");
}

}  // namespace
}  // namespace rhw
