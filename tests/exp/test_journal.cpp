// Checkpoint/resume: the sweep journal (exp/journal.hpp) plus the engine's
// budget-interrupt -> resume path. The acceptance property is byte-identity:
// an interrupted-then-resumed run's results payload equals the
// uninterrupted run's, and a torn journal tail only costs re-running the one
// task it recorded.
#include "exp/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "data/synth_cifar.hpp"
#include "exp/sweep.hpp"
#include "models/zoo.hpp"

namespace rhw::exp {
namespace {

namespace fs = std::filesystem;

std::string temp_journal(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(Journal, MissingFileLoadsEmpty) {
  EXPECT_TRUE(load_journal(temp_journal("rhw_no_such_journal.jsonl"), "h")
                  .empty());
}

TEST(Journal, RoundTripsCleanAndCellEntries) {
  const std::string path = temp_journal("rhw_journal_roundtrip.jsonl");
  {
    SweepJournal journal(path, "spec | shard=0/1 | panel=t", /*append=*/false);
    JournalEntry clean;
    clean.clean = true;
    clean.pool = "x32";
    clean.trial = 1;
    clean.clean_acc = 46.875;
    clean.cert = 0.12345678901234567;
    journal.record(clean);
    JournalEntry cell;
    cell.index = 12;
    cell.adv = 31.25;
    journal.record(cell);
  }
  // The on-disk lines are a format: resumes read journals written by older
  // builds, so the bytes are pinned, not just the round trip.
  std::ifstream is(path);
  std::stringstream raw;
  raw << is.rdbuf();
  EXPECT_EQ(raw.str(),
            "{\"schema\":\"rhw-journal-v1\",\"header\":\"spec | shard=0/1 | "
            "panel=t\"}\n"
            "{\"type\":\"clean\",\"pool\":\"x32\",\"trial\":1,\"clean\":46.875,"
            "\"cert\":0.12345678901234566}\n"
            "{\"type\":\"cell\",\"index\":12,\"adv\":31.25}\n");
  const auto entries = load_journal(path, "spec | shard=0/1 | panel=t");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].clean);
  EXPECT_EQ(entries[0].pool, "x32");
  EXPECT_EQ(entries[0].trial, 1);
  EXPECT_EQ(entries[0].clean_acc, 46.875);
  EXPECT_EQ(entries[0].cert, 0.12345678901234567);
  EXPECT_FALSE(entries[1].clean);
  EXPECT_EQ(entries[1].index, 12u);
  EXPECT_EQ(entries[1].adv, 31.25);
  fs::remove(path);
}

TEST(Journal, HeaderMismatchThrowsNamingBothRuns) {
  const std::string path = temp_journal("rhw_journal_header.jsonl");
  { SweepJournal journal(path, "run A", /*append=*/false); }
  try {
    (void)load_journal(path, "run B");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("header mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("run A"), std::string::npos) << what;
    EXPECT_NE(what.find("run B"), std::string::npos) << what;
  }
  fs::remove(path);
}

TEST(Journal, TornTailIsDroppedNotFatal) {
  const std::string path = temp_journal("rhw_journal_torn.jsonl");
  {
    SweepJournal journal(path, "h", /*append=*/false);
    JournalEntry cell;
    cell.index = 3;
    cell.adv = 50.0;
    journal.record(cell);
    // A non-finite value is written as null, which no entry accepts: the
    // line stops the replay like a torn tail and its task re-runs.
    cell.index = 4;
    cell.adv = std::numeric_limits<double>::quiet_NaN();
    journal.record(cell);
  }
  {
    // The crash case: the process died mid-append.
    std::ofstream os(path, std::ios::app);
    os << "{\"type\":\"cell\",\"ind";
  }
  const auto entries = load_journal(path, "h");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].index, 3u);
  fs::remove(path);
}

// -- engine-level interrupt -> resume ----------------------------------------

class ResumeTest : public ::testing::Test {
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
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  static SweepGrid make_grid() {
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
    grid.attacks.push_back({"pgd", {8.f / 255.f}});
    return grid;
  }

  static constexpr const char* kHeader = "resume-test | shard=0/1 | panel=t";

  static SweepResult run(const std::string& journal, bool resume,
                         size_t max_cells) {
    SweepEngine::Options opt;
    opt.threads = 2;
    opt.journal_path = journal;
    opt.journal_header = kHeader;
    opt.resume = resume;
    opt.max_cells = max_cells;
    SweepEngine engine(opt);
    return engine.run(make_grid());
  }

  static std::string payload(const SweepResult& result) {
    std::ostringstream os;
    result.write_json(os, "resume_test", /*payload_only=*/true);
    return os.str();
  }

  static data::SynthCifar* data_;
  static models::Model* model_;
};

data::SynthCifar* ResumeTest::data_ = nullptr;
models::Model* ResumeTest::model_ = nullptr;

TEST_F(ResumeTest, InterruptedRunResumesBitIdentical) {
  const std::string journal = temp_journal("rhw_resume_engine.jsonl");
  fs::remove(journal);
  const SweepResult reference = run("", false, 0);

  // Kill the run after 5 tasks: the budget knob throws SweepInterrupted and
  // the journal keeps what completed.
  try {
    (void)run(journal, false, 5);
    FAIL() << "expected SweepInterrupted";
  } catch (const SweepInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find(journal), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(load_journal(journal, kHeader).size(), 5u);

  const SweepResult resumed = run(journal, true, 0);
  EXPECT_EQ(resumed.resumed, 5u);
  EXPECT_EQ(payload(resumed), payload(reference));
  fs::remove(journal);
}

TEST_F(ResumeTest, TornJournalLineOnlyReRunsThatTask) {
  const std::string journal = temp_journal("rhw_resume_torn.jsonl");
  fs::remove(journal);
  const SweepResult reference = run("", false, 0);

  EXPECT_THROW((void)run(journal, false, 4), SweepInterrupted);
  {
    // Tear the last line in half, as a crash mid-append would.
    std::ifstream is(journal);
    std::stringstream ss;
    ss << is.rdbuf();
    std::string text = ss.str();
    text.resize(text.size() - 9);
    std::ofstream os(journal, std::ios::trunc);
    os << text;
  }
  EXPECT_EQ(load_journal(journal, kHeader).size(), 3u);

  const SweepResult resumed = run(journal, true, 0);
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(payload(resumed), payload(reference));
  fs::remove(journal);
}

TEST_F(ResumeTest, ResumeIntoDifferentRunRefuses) {
  const std::string journal = temp_journal("rhw_resume_wrong.jsonl");
  fs::remove(journal);
  EXPECT_THROW((void)run(journal, false, 2), SweepInterrupted);

  SweepEngine::Options opt;
  opt.threads = 1;
  opt.journal_path = journal;
  opt.journal_header = "a different spec | shard=0/1 | panel=t";
  opt.resume = true;
  SweepEngine engine(opt);
  EXPECT_THROW((void)engine.run(make_grid()), std::runtime_error);
  fs::remove(journal);
}

TEST_F(ResumeTest, ResumeWithoutJournalRunsEverything) {
  const std::string journal = temp_journal("rhw_resume_fresh.jsonl");
  fs::remove(journal);
  const SweepResult resumed = run(journal, true, 0);
  EXPECT_EQ(resumed.resumed, 0u);
  EXPECT_EQ(payload(resumed), payload(run("", false, 0)));
  fs::remove(journal);
}

}  // namespace
}  // namespace rhw::exp
