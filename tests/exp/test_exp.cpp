#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/rng.hpp"
#include "data/synth_cifar.hpp"
#include "exp/sweep.hpp"
#include "exp/table_printer.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"

namespace rhw::exp {
namespace {

TEST(TablePrinter, CsvRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "rhw_table_test.csv").string();
  TablePrinter t({"a", "b"});
  t.add_row({"1", "hello"});
  t.add_row({"2", "with,comma"});
  t.add_row({"3", "with\"quote"});
  t.write_csv(path);
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "a,b");
  std::getline(is, line);
  EXPECT_EQ(line, "1,hello");
  std::getline(is, line);
  EXPECT_EQ(line, "2,\"with,comma\"");
  std::getline(is, line);
  EXPECT_EQ(line, "3,\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_EQ(t.num_rows(), 1u);
  t.print();  // must not crash
}

TEST(TablePrinter, Fmt) {
  EXPECT_EQ(core::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(core::fmt(1.0, 0), "1");
  EXPECT_EQ(core::fmt(-0.5, 3), "-0.500");
}

TEST(EpsilonGrids, MatchPaper) {
  const auto fe = fgsm_epsilons();
  ASSERT_EQ(fe.size(), 7u);
  EXPECT_EQ(fe.front(), 0.f);
  EXPECT_FLOAT_EQ(fe.back(), 0.3f);
  const auto pe = pgd_epsilons();
  ASSERT_EQ(pe.size(), 6u);
  EXPECT_FLOAT_EQ(pe[1], 2.f / 255.f);
  EXPECT_FLOAT_EQ(pe.back(), 32.f / 255.f);
}

// One AL(eps) row — a one-mode, one-attack FGSM grid on a small randomly
// initialized VGG8 — run at one lane, the serial reference path.
AlCurve one_row_curve(const std::vector<float>& eps) {
  data::SynthCifarConfig dcfg;
  dcfg.num_classes = 3;
  dcfg.train_per_class = 1;
  dcfg.test_per_class = 4;
  dcfg.image_size = 16;
  const data::SynthCifar data = data::make_synth_cifar(dcfg);
  const models::Model model = models::build_model("vgg8", 3, 0.125f, 16);
  rhw::RandomEngine rng(2);
  nn::kaiming_init(*model.net, rng);
  SweepGrid grid;
  grid.model = &model;
  grid.width_mult = 0.125f;
  grid.in_size = 16;
  grid.eval_set = &data.test;
  grid.backends.push_back({"ideal", "ideal"});
  grid.modes.push_back({"row", "ideal", "ideal"});
  grid.attacks.push_back({"fgsm", eps});
  SweepEngine::Options opt;
  opt.threads = 1;
  SweepEngine engine(opt);
  return engine.run(grid).curve("row", "fgsm");
}

TEST(OneRowGrid, ZeroEpsilonPointHasZeroAl) {
  const auto curve = one_row_curve({0.f, 0.1f});
  ASSERT_EQ(curve.points.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.points[0].al, 0.0);
  EXPECT_DOUBLE_EQ(curve.points[0].clean_acc, curve.points[0].adv_acc);
  EXPECT_GE(curve.points[1].al, 0.0 - 1e-9);
  EXPECT_EQ(curve.label, "row");
}

TEST(OneRowGrid, CleanAccuracyConstantAcrossEpsilons) {
  const auto curve = one_row_curve({0.05f, 0.1f, 0.2f});
  ASSERT_EQ(curve.points.size(), 3u);
  for (const auto& pt : curve.points) {
    EXPECT_DOUBLE_EQ(pt.clean_acc, curve.points[0].clean_acc);
    EXPECT_NEAR(pt.al, pt.clean_acc - pt.adv_acc, 1e-9);
  }
}

}  // namespace
}  // namespace rhw::exp
