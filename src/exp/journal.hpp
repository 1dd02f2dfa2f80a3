// Crash-safe cell-completion journal behind the sweep engine's
// checkpoint/resume (SweepOptions::journal_path).
//
// The journal is a JSONL file inside the artifact's `<out>.partial/`
// directory. Line 1 identifies the run — schema tag plus a header string
// (canonical spec + shard + panel) that a resume must match exactly, so a
// journal can never replay into a different experiment. Every completed task
// appends one line, flushed immediately:
//
//   {"schema":"rhw-journal-v1","header":"<canonical spec ...>"}
//   {"type":"clean","pool":"x32","trial":0,"clean":46.875,"cert":0}
//   {"type":"cell","index":12,"adv":31.25}
//
// Lines are written by exp::JsonWriter, so doubles are %.17g (bit-exact
// round-trip): a run resumed from the journal produces an artifact
// byte-identical to an uninterrupted one. A torn final line (the process died
// mid-append) fails to parse and is ignored — the one task it recorded simply
// re-runs; so is a line whose non-finite value was written as null.
#pragma once

#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace rhw::exp {

// One journaled task: a shared clean/cert pass (per eval backend and trial)
// or one adversarial cell, keyed by its canonical enumeration index.
struct JournalEntry {
  bool clean = false;
  std::string pool;       // clean: eval backend key
  int trial = 0;          // clean: trial
  size_t index = 0;       // cell: canonical cell index
  double clean_acc = 0.0;
  double cert = 0.0;
  double adv = 0.0;
};

// Parses an existing journal. Missing file -> empty. A header line whose
// header string differs from `header` throws std::runtime_error quoting
// both (the resume-into-the-wrong-run guard). Parsing stops silently at the
// first malformed line (torn tail).
std::vector<JournalEntry> load_journal(const std::string& path,
                                       const std::string& header);

// Append-side handle. Creates parent directories; append=false starts a
// fresh journal (truncates, writes the header line), append=true continues
// an existing one. record() is safe to call from concurrent sweep lanes and
// flushes after every line.
class SweepJournal {
 public:
  SweepJournal(const std::string& path, const std::string& header,
               bool append);

  void record(const JournalEntry& entry);

 private:
  std::mutex mu_;
  std::ofstream os_;
};

}  // namespace rhw::exp
