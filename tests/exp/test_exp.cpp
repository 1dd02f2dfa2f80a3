#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/rng.hpp"
#include "exp/al_runner.hpp"
#include "exp/table_printer.hpp"
#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"

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
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(-0.5, 3), "-0.500");
}

TEST(AlRunner, EpsilonGridsMatchPaper) {
  const auto fe = fgsm_epsilons();
  ASSERT_EQ(fe.size(), 7u);
  EXPECT_EQ(fe.front(), 0.f);
  EXPECT_FLOAT_EQ(fe.back(), 0.3f);
  const auto pe = pgd_epsilons();
  ASSERT_EQ(pe.size(), 6u);
  EXPECT_FLOAT_EQ(pe[1], 2.f / 255.f);
  EXPECT_FLOAT_EQ(pe.back(), 32.f / 255.f);
}

TEST(AlRunner, ZeroEpsilonPointHasZeroAl) {
  nn::Sequential net;
  net.emplace<nn::Linear>(4, 3);
  rhw::RandomEngine rng(1);
  nn::kaiming_init(net, rng);
  net.set_training(false);

  data::Dataset ds;
  ds.images = Tensor::rand_uniform({12, 4}, rng);
  ds.images.reshape_inplace({12, 4});
  ds.num_classes = 3;
  for (int i = 0; i < 12; ++i) ds.labels.push_back(i % 3);
  // Dataset::slice expects rank-4 images; reshape to [N,1,2,2].
  ds.images.reshape_inplace({12, 1, 2, 2});

  nn::Sequential wrapper;  // flatten then the linear net would be overkill;
  // instead evaluate with a flatten stage.
  auto& flat = wrapper.emplace<nn::Flatten>();
  (void)flat;
  wrapper.emplace<nn::Linear>(4, 3);
  nn::kaiming_init(wrapper, rng);
  wrapper.set_training(false);

  const std::vector<float> eps{0.f, 0.1f};
  const auto curve = al_curve("test", wrapper, wrapper, ds, "fgsm", eps);
  ASSERT_EQ(curve.points.size(), 2u);
  EXPECT_DOUBLE_EQ(curve.points[0].al, 0.0);
  EXPECT_DOUBLE_EQ(curve.points[0].clean_acc, curve.points[0].adv_acc);
  EXPECT_GE(curve.points[1].al, 0.0 - 1e-9);
  EXPECT_EQ(curve.label, "test");
}

TEST(AlRunner, CleanAccuracyConstantAcrossEpsilons) {
  rhw::RandomEngine rng(2);
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(4, 2);
  nn::kaiming_init(net, rng);
  net.set_training(false);
  data::Dataset ds;
  ds.images = Tensor::rand_uniform({8, 1, 2, 2}, rng);
  ds.num_classes = 2;
  for (int i = 0; i < 8; ++i) ds.labels.push_back(i % 2);
  const std::vector<float> eps{0.05f, 0.1f, 0.2f};
  const auto curve = al_curve("x", net, net, ds, "fgsm", eps);
  for (const auto& pt : curve.points) {
    EXPECT_DOUBLE_EQ(pt.clean_acc, curve.points[0].clean_acc);
    EXPECT_NEAR(pt.al, pt.clean_acc - pt.adv_acc, 1e-9);
  }
}

}  // namespace
}  // namespace rhw::exp
