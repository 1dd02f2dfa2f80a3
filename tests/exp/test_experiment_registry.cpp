// The fourth seam's contract: preset resolution, override semantics
// (key=value, axis+=item), parse-error parity with the hw/attack/defense
// registries, and golden grid-expansion tests asserting that the fig5 and
// fig8bc presets expand to exactly the grids their pre-redesign bench
// binaries assembled by hand.
#include "exp/experiment_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/registry.hpp"
#include "hw/xbar_backend.hpp"

namespace rhw::exp {
namespace {

TEST(ExperimentRegistry, RegistersEveryFigureTableAndExample) {
  auto& registry = ExperimentRegistry::instance();
  for (const char* name :
       {"fig5", "fig5w", "fig6", "fig7", "fig8a", "fig8bc", "fig_cert",
        "table1", "table2", "table3", "shootout", "obfuscation_audit",
        "sweep_smoke", "serve_smoke", "serve_curve", "ablation_adaptive",
        "ablation_chip_variation"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    // Resolution + full validation against the three live registries — the
    // same check `rhw_run --list` runs in CI.
    EXPECT_NO_THROW(registry.preset(name).validate()) << name;
  }
}

// Unknown presets fail with the same error shape as the other three
// registries: the offending token plus the registered keys.
TEST(ExperimentRegistry, UnknownPresetNamesTokenAndListsKeys) {
  try {
    (void)ExperimentRegistry::instance().preset("fig9");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fig9"), std::string::npos) << what;
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
    EXPECT_NE(what.find("fig8bc"), std::string::npos) << what;
  }
}

// -- override semantics -------------------------------------------------------

TEST(ExperimentOverrides, ScalarAndListOverrides) {
  ExperimentSpec spec = ExperimentRegistry::instance().preset("sweep_smoke");
  spec.apply_override("trials=5");
  spec.apply_override("seed=99");
  spec.apply_override("batch=16");
  EXPECT_EQ(spec.trials, 5);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.batch, 16);

  const size_t arms = spec.backends.size();
  spec.apply_override("backends+=xbar:rmin=1e5+smooth:sigma=0.25");
  ASSERT_EQ(spec.backends.size(), arms + 1);
  const ExperimentBackend& added = spec.backends.back();
  EXPECT_EQ(added.key, "xbar+smooth");  // auto key: hw key + defense key
  EXPECT_EQ(added.hw, "xbar:rmin=1e5");
  EXPECT_EQ(added.defense, "smooth:sigma=0.25");
  EXPECT_FALSE(added.calibrate);
  spec.apply_override("modes+=SH-smooth=ideal/xbar+smooth");
  EXPECT_EQ(spec.modes.back().grad, "ideal");
  EXPECT_EQ(spec.modes.back().eval, "xbar+smooth");
  spec.apply_override("attacks+=pgd:steps=3@0.05,0.1");
  EXPECT_EQ(spec.attacks.back().spec, "pgd:steps=3");
  ASSERT_EQ(spec.attacks.back().epsilons.size(), 2u);
  EXPECT_FLOAT_EQ(spec.attacks.back().epsilons[1], 0.1f);
  EXPECT_NO_THROW(spec.validate());

  // axis= replaces; axis= with an empty value clears.
  spec.apply_override("attacks=fgsm@fgsm-grid");
  ASSERT_EQ(spec.attacks.size(), 1u);
  EXPECT_EQ(spec.attacks[0].epsilons, fgsm_epsilons());
  spec.apply_override("modes=");
  EXPECT_TRUE(spec.modes.empty());
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // no modes left
}

// The numeric-'+' edge: "rmin=1e+5" keeps its plus; only '+<letter>' starts
// a defense spec. "@calib" hands the arm the calibration set.
TEST(ExperimentOverrides, BackendItemGrammar) {
  const ExperimentBackend plain = parse_backend_item("xbar:rmin=1e+5");
  EXPECT_EQ(plain.hw, "xbar:rmin=1e+5");
  EXPECT_TRUE(plain.defense.empty());
  EXPECT_EQ(plain.key, "xbar");

  const ExperimentBackend keyed =
      parse_backend_item("noisy=sram:vdd=0.68,eval_count=150@calib");
  EXPECT_EQ(keyed.key, "noisy");
  EXPECT_EQ(keyed.hw, "sram:vdd=0.68,eval_count=150");
  EXPECT_TRUE(keyed.calibrate);

  const ExperimentBackend composed =
      parse_backend_item("xbar:rmin=1e+5+smooth:sigma=0.25");
  EXPECT_EQ(composed.hw, "xbar:rmin=1e+5");
  EXPECT_EQ(composed.defense, "smooth:sigma=0.25");

  EXPECT_THROW(parse_backend_item("ideal@wat"), std::invalid_argument);
  EXPECT_THROW(parse_backend_item(""), std::invalid_argument);
}

// Error parity with the other registries: every failure names the offending
// token.
TEST(ExperimentOverrides, ErrorsNameTheOffendingToken) {
  ExperimentSpec spec = ExperimentRegistry::instance().preset("sweep_smoke");
  try {
    spec.apply_override("trils=5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trils"), std::string::npos)
        << e.what();
  }
  try {
    spec.apply_override("trials=abc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos)
        << e.what();
  }
  // A typo'd defense knob surfaces the DefenseRegistry's token-naming error
  // at validate() time, exactly like SweepEngine::run does for hand-built
  // grids.
  spec.apply_override("backends+=d=ideal+smooth:sgima=0.25");
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sgima"), std::string::npos)
        << e.what();
  }
  spec.apply_override("backends=");
  spec.apply_override("backends+=ideal");
  spec.apply_override("modes=SW=ideal");
  spec.apply_override("attacks+=pgd:stpes=7@0.1");
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stpes"), std::string::npos)
        << e.what();
  }
}

// The engine= knob routes the whole run through one core::EngineRegistry
// spec; unknown tokens fail at override time with the engine registry's own
// token-naming error.
TEST(ExperimentOverrides, EngineKnobValidatesAndRoundTrips) {
  ExperimentSpec spec = ExperimentRegistry::instance().preset("sweep_smoke");
  EXPECT_TRUE(spec.engine.empty());  // presets defer to the default engine

  spec.apply_override("engine=simd:mr=8,nr=8");
  EXPECT_EQ(spec.engine, "simd:mr=8,nr=8");
  EXPECT_NO_THROW(spec.validate());
  const auto args = spec.to_args();
  EXPECT_TRUE(std::find(args.begin(), args.end(), "engine=simd:mr=8,nr=8") !=
              args.end());

  // engine= with an empty value restores the deferred default, and the token
  // then disappears from the canonical serialization.
  spec.apply_override("engine=");
  EXPECT_TRUE(spec.engine.empty());
  for (const auto& token : spec.to_args()) {
    EXPECT_TRUE(token.rfind("engine=", 0) != 0) << token;
  }

  try {
    spec.apply_override("engine=cublas");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown compute engine"), std::string::npos) << what;
    EXPECT_NE(what.find("cublas"), std::string::npos) << what;
  }
  EXPECT_THROW(spec.apply_override("engine=simd:mr=3"), std::invalid_argument);
  // A stale engine token planted directly in the spec is caught by the same
  // up-front validate() that vets hw/defense/attack specs.
  spec.engine = "simd:mr=3";  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// The serving knobs (serve=, qps=, requests=, batch_max=, linger_us=,
// lanes=) follow the same override + token-naming error contract, and
// serve=1 relaxes validate()'s modes/attacks requirements.
TEST(ExperimentOverrides, ServeKnobsValidateAndReportErrors) {
  ExperimentSpec spec = ExperimentRegistry::instance().preset("serve_smoke");
  EXPECT_TRUE(spec.serve);
  EXPECT_TRUE(spec.modes.empty());    // serving mode needs no attack grid
  EXPECT_TRUE(spec.attacks.empty());
  EXPECT_NO_THROW(spec.validate());

  spec.apply_override("qps=250,1e3");
  ASSERT_EQ(spec.qps.size(), 2u);
  EXPECT_FLOAT_EQ(spec.qps[0], 250.f);
  EXPECT_FLOAT_EQ(spec.qps[1], 1000.f);
  spec.apply_override("requests=12");
  spec.apply_override("batch_max=32");
  spec.apply_override("linger_us=500");
  spec.apply_override("lanes=3");
  EXPECT_EQ(spec.requests, 12);
  EXPECT_EQ(spec.batch_max, 32);
  EXPECT_EQ(spec.linger_us, 500);
  EXPECT_EQ(spec.lanes, 3);
  EXPECT_NO_THROW(spec.validate());

  try {
    spec.apply_override("qps=100,abc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(spec.apply_override("qps=0"), std::invalid_argument);
  EXPECT_THROW(spec.apply_override("qps="), std::invalid_argument);
  EXPECT_THROW(spec.apply_override("requests=0"), std::invalid_argument);
  EXPECT_THROW(spec.apply_override("batch_max=0"), std::invalid_argument);
  EXPECT_THROW(spec.apply_override("linger_us=-1"), std::invalid_argument);

  // Dropping back to sweep mode re-arms the modes/attacks requirements: a
  // serve preset has neither, so validate() fails again.
  spec.apply_override("serve=0");
  EXPECT_FALSE(spec.serve);
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ExperimentOverrides, ModelAndDatasetRewriteEveryPanel) {
  ExperimentSpec spec = ExperimentRegistry::instance().preset("fig6");
  spec.apply_override("model=vgg16");
  spec.apply_override("dataset=synth-c100");
  ASSERT_EQ(spec.panels.size(), 1u);
  EXPECT_EQ(spec.panels[0].arch, "vgg16");
  EXPECT_EQ(spec.panels[0].dataset, "synth-c100");
  // ... which is exactly fig7's grid.
  const ExperimentSpec fig7 = ExperimentRegistry::instance().preset("fig7");
  EXPECT_EQ(spec.panels, fig7.panels);
  EXPECT_EQ(spec.backends, fig7.backends);
  EXPECT_EQ(spec.modes, fig7.modes);
  EXPECT_EQ(spec.attacks, fig7.attacks);
}

// A dataset= override carrying registry knobs and a corruption wrapper must
// survive the to_args() round trip verbatim — the artifact's canonical array
// is how a sharded run is re-assembled, so a lossy serialization would change
// what the resumed shards compute.
TEST(ExperimentOverrides, DatasetOverrideRoundTripsThroughToArgs) {
  ExperimentSpec spec = ExperimentRegistry::instance().preset("sweep_smoke");
  spec.apply_override(
      "dataset=tiny:classes=10,train=4,test=8,size=16"
      "+corrupt:kind=gauss_noise,sev=3");
  EXPECT_NO_THROW(spec.validate());
  ExperimentSpec rebuilt;
  for (const auto& token : spec.to_args()) {
    rebuilt.apply_override(token);
  }
  EXPECT_EQ(rebuilt.panels, spec.panels);
  ASSERT_EQ(rebuilt.panels.size(), 1u);
  EXPECT_EQ(rebuilt.panels[0].dataset,
            "tiny:classes=10,train=4,test=8,size=16"
            "+corrupt:kind=gauss_noise,sev=3");
  // An invalid dataset spec is rejected at override time, not at run time.
  EXPECT_THROW(spec.apply_override("dataset=imagenet"), std::invalid_argument);
  EXPECT_THROW(spec.apply_override("dataset=tiny+corrupt:sev=2"),
               std::invalid_argument);
}

// to_args() is the canonical serialization the v4 artifacts embed: applying
// it to an empty spec reproduces the preset bit-exactly (epsilons included).
TEST(ExperimentOverrides, ToArgsRoundTripsBitExactly) {
  for (const char* name :
       {"fig5", "fig8bc", "fig_cert", "shootout", "sweep_smoke",
        "serve_smoke", "serve_curve"}) {
    const ExperimentSpec original =
        ExperimentRegistry::instance().preset(name);
    ExperimentSpec rebuilt;
    for (const auto& token : original.to_args()) {
      rebuilt.apply_override(token);
    }
    EXPECT_EQ(rebuilt.panels, original.panels) << name;
    EXPECT_EQ(rebuilt.train, original.train) << name;
    EXPECT_EQ(rebuilt.engine, original.engine) << name;
    EXPECT_EQ(rebuilt.eval_count, original.eval_count) << name;
    EXPECT_EQ(rebuilt.backends, original.backends) << name;
    EXPECT_EQ(rebuilt.modes, original.modes) << name;
    EXPECT_EQ(rebuilt.attacks, original.attacks) << name;
    EXPECT_EQ(rebuilt.trials, original.trials) << name;
    EXPECT_EQ(rebuilt.seed, original.seed) << name;
    EXPECT_EQ(rebuilt.batch, original.batch) << name;
    EXPECT_EQ(rebuilt.verify, original.verify) << name;
    EXPECT_EQ(rebuilt.serve, original.serve) << name;
    EXPECT_EQ(rebuilt.qps, original.qps) << name;
    EXPECT_EQ(rebuilt.requests, original.requests) << name;
    EXPECT_EQ(rebuilt.batch_max, original.batch_max) << name;
    EXPECT_EQ(rebuilt.linger_us, original.linger_us) << name;
    EXPECT_EQ(rebuilt.lanes, original.lanes) << name;
    EXPECT_EQ(rebuilt.tag, original.tag) << name;
  }
}

// -- golden grid expansions ---------------------------------------------------
// The acceptance criterion: the presets expand to grids bit-identical to the
// ones the pre-redesign bench binaries assembled imperatively. The expected
// values below are copied from that deleted imperative code, which
// `rhw_run fig5` and `rhw_run fig8bc` now replace.

TEST(ExperimentGolden, Fig5ExpandsToThePreRedesignGrid) {
  const ExperimentSpec spec = ExperimentRegistry::instance().preset("fig5");
  // Panels: arch-outer, dataset-inner loop order of the old bench.
  const std::vector<ExperimentPanel> panels{{"vgg19", "synth-c10"},
                                            {"vgg19", "synth-c100"},
                                            {"resnet18", "synth-c10"},
                                            {"resnet18", "synth-c100"}};
  EXPECT_EQ(spec.panels, panels);
  ASSERT_EQ(spec.backends.size(), 2u);
  EXPECT_EQ(spec.backends[0], (ExperimentBackend{"ideal", "ideal", "", false}));
  EXPECT_EQ(spec.backends[1],
            (ExperimentBackend{"noisy", "sram_selected:vdd=0.68", "", false}));
  ASSERT_EQ(spec.modes.size(), 2u);
  EXPECT_EQ(spec.modes[0], (ExperimentMode{"Baseline", "ideal", "ideal"}));
  EXPECT_EQ(spec.modes[1], (ExperimentMode{"BitErrorNoise", "ideal", "noisy"}));
  ASSERT_EQ(spec.attacks.size(), 1u);
  EXPECT_EQ(spec.attacks[0].spec, "fgsm");
  EXPECT_EQ(spec.attacks[0].epsilons, fgsm_epsilons());  // bitwise
  EXPECT_EQ(spec.trials, 1);
  EXPECT_EQ(spec.seed, 0xADE5u);  // attacks::kDefaultEvalSeed
  EXPECT_EQ(spec.batch, 100);
  EXPECT_EQ(spec.eval_count, 256);
  EXPECT_EQ(spec.train, "zoo");
}

TEST(ExperimentGolden, Fig8bcExpandsToThePreRedesignGrid) {
  const ExperimentSpec spec = ExperimentRegistry::instance().preset("fig8bc");
  ASSERT_EQ(spec.panels.size(), 1u);
  EXPECT_EQ(spec.panels[0], (ExperimentPanel{"vgg16", "synth-c100"}));
  const std::vector<ExperimentBackend> backends{
      {"ideal", "ideal", "", false},
      {"x32", "xbar:size=32", "", false},
      {"disc4b", "ideal", "jpeg_quant:bits=4", false},
      {"quanos", "ideal", "quanos:samples=128", true},
      {"smoothed", "ideal", "smooth:sigma=0.1,samples=16", false},
  };
  EXPECT_EQ(spec.backends, backends);
  const std::vector<ExperimentMode> modes{
      {"Attack-SW", "ideal", "ideal"},
      {"SH-Cross32", "ideal", "x32"},
      {"4b-discretization", "disc4b", "disc4b"},
      {"QUANOS", "quanos", "quanos"},
      {"Smooth", "smoothed", "smoothed"},
  };
  EXPECT_EQ(spec.modes, modes);
  ASSERT_EQ(spec.attacks.size(), 2u);
  EXPECT_EQ(spec.attacks[0].spec, "fgsm");
  EXPECT_EQ(spec.attacks[0].epsilons, fgsm_epsilons());
  EXPECT_EQ(spec.attacks[1].spec, "pgd");
  EXPECT_EQ(spec.attacks[1].epsilons, pgd_epsilons());
  EXPECT_EQ(spec.trials, 1);
  EXPECT_EQ(spec.tag, "fig8bc_defense_comparison");

  // The old bench's crossbar arm was bench::xbar_spec(32) =
  // "xbar:size=32,rmin=20000.000000,seed=45232". The preset writes the
  // equivalent minimal spec; assert the constructed hardware is identical.
  const auto from_preset = hw::make_backend(spec.backends[1].hw);
  const auto from_old_bench =
      hw::make_backend("xbar:size=32,rmin=20000.000000,seed=45232");
  const auto* a = dynamic_cast<const hw::XbarBackend*>(from_preset.get());
  const auto* b = dynamic_cast<const hw::XbarBackend*>(from_old_bench.get());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->config().map.spec.rows, b->config().map.spec.rows);
  EXPECT_EQ(a->config().map.spec.cols, b->config().map.spec.cols);
  EXPECT_DOUBLE_EQ(a->config().map.spec.r_min, b->config().map.spec.r_min);
  EXPECT_DOUBLE_EQ(a->config().map.spec.r_max, b->config().map.spec.r_max);
  EXPECT_EQ(a->config().map.seed, b->config().map.seed);
}

// `rhw_run sweep_smoke` mirrors the old imperative smoke grid, with verify=1
// standing in for its built-in serial-parity check.
TEST(ExperimentGolden, SweepSmokeKeepsTheStochasticAwareArms) {
  const ExperimentSpec spec =
      ExperimentRegistry::instance().preset("sweep_smoke");
  EXPECT_TRUE(spec.verify);
  EXPECT_EQ(spec.trials, 2);
  EXPECT_EQ(spec.batch, 32);
  EXPECT_EQ(spec.eval_count, 64);
  EXPECT_EQ(spec.train, "none");
  ASSERT_EQ(spec.attacks.size(), 5u);
  EXPECT_EQ(spec.attacks[2].spec, "eot_pgd:steps=2,samples=2");
  EXPECT_EQ(spec.attacks[3].spec, "square:queries=12");
  EXPECT_EQ(spec.attacks[4].spec, "mifgsm:steps=2");
}

// -- environment independence -------------------------------------------------

// Runs read nothing from the environment that changes results: with the
// retired RHW_FAST / RHW_EVAL_COUNT switches set, every preset's canonical
// list and a sweep_smoke payload equal those of a run with both unset.
TEST(ExperimentRegistry, RetiredEnvSwitchesChangeNothing) {
  const std::vector<std::string> names{"RHW_FAST", "RHW_EVAL_COUNT"};
  std::vector<std::optional<std::string>> saved;
  for (const std::string& name : names) {
    // rhw-lint: allow(env) — saves the caller's value, restored below
    const char* old = std::getenv(name.c_str());
    saved.push_back(old != nullptr ? std::optional<std::string>(old)
                                   : std::nullopt);
    unsetenv(name.c_str());
  }
  const auto observe = [] {
    auto& registry = ExperimentRegistry::instance();
    std::map<std::string, std::vector<std::string>> canonical;
    for (const std::string& key : registry.keys()) {
      canonical[key] = registry.preset(key).to_args();
    }
    // verify=0: the serial re-check adds time, not coverage, here.
    std::ostringstream payload;
    run_experiment("sweep_smoke", {"verify=0"})
        .at(0)
        .write_json(payload, "sweep_smoke", /*payload_only=*/true);
    return std::make_pair(canonical, payload.str());
  };
  const auto unset = observe();
  setenv("RHW_FAST", "1", 1);
  setenv("RHW_EVAL_COUNT", "3", 1);
  const auto set = observe();
  for (size_t i = 0; i < names.size(); ++i) {
    unsetenv(names[i].c_str());
    if (saved[i]) setenv(names[i].c_str(), saved[i]->c_str(), 1);
  }
  EXPECT_EQ(set.first, unset.first);
  EXPECT_EQ(set.second, unset.second);
}

// -- section grammar ----------------------------------------------------------

TEST(ExperimentSections, ParseAndReject) {
  const ArchSection arch = parse_arch_section("vgg8:width=0.125,in=16");
  EXPECT_EQ(arch.arch, "vgg8");
  EXPECT_FLOAT_EQ(arch.width_mult, 0.125f);
  EXPECT_EQ(arch.in_size, 16);
  EXPECT_THROW(parse_arch_section("vgg9"), std::invalid_argument);
  EXPECT_THROW(parse_arch_section("vgg8:wdith=0.5"), std::invalid_argument);

  const DatasetSection tiny =
      parse_dataset_section("tiny:classes=4,train=8,test=10,size=16");
  EXPECT_EQ(tiny.tag, "tiny-c4");
  EXPECT_EQ(tiny.key, "tiny");
  EXPECT_EQ(tiny.zoo_tag, "tiny-c4");
  EXPECT_EQ(tiny.canonical, "tiny:classes=4,size=16,test=10,train=8");
  // rhw-lint: allow(spec) stale on purpose — synth-c10 takes no options
  EXPECT_THROW(parse_dataset_section("synth-c10:classes=4"),
               std::invalid_argument);
  EXPECT_THROW(parse_dataset_section("imagenet"), std::invalid_argument);

  // The sixth seam: registry keys resolve (cifar10 validates without disk
  // I/O), and the corruption wrapper parses into tag/zoo_tag/canonical.
  const DatasetSection cifar =
      parse_dataset_section("cifar10:dir=tests/data/fixtures/cifar10");
  EXPECT_EQ(cifar.key, "cifar10");
  EXPECT_EQ(cifar.tag, "cifar10");
  const DatasetSection foggy = parse_dataset_section(
      "tiny:classes=4,train=8,test=10,size=16+corrupt:sev=3,kind=fog");
  EXPECT_EQ(foggy.key, "tiny");
  EXPECT_EQ(foggy.tag, "tiny-c4+fog3");
  EXPECT_EQ(foggy.zoo_tag, "tiny-c4");
  EXPECT_EQ(foggy.canonical,
            "tiny:classes=4,size=16,test=10,train=8+corrupt:kind=fog,sev=3");
  // rhw-lint: allow(spec) — unknown corruption kind, stale on purpose
  EXPECT_THROW(parse_dataset_section("tiny+corrupt:kind=melt,sev=1"),
               std::invalid_argument);
  // rhw-lint: allow(spec) — severity above range, stale on purpose
  EXPECT_THROW(parse_dataset_section("tiny+corrupt:kind=fog,sev=6"),
               std::invalid_argument);

  const TrainSection quick = parse_train_section("quick:epochs=2,batch=25");
  EXPECT_EQ(quick.epochs, 2);
  EXPECT_EQ(quick.batch, 25);
  EXPECT_THROW(parse_train_section("sgd"), std::invalid_argument);
  EXPECT_THROW(parse_train_section("zoo:epochs=2"), std::invalid_argument);

  // zoo training serves default-geometry models on the paper datasets only.
  ExperimentSpec spec = ExperimentRegistry::instance().preset("sweep_smoke");
  spec.apply_override("train=zoo");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace rhw::exp
