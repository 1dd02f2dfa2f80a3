#include "exp/journal.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "exp/artifact.hpp"
#include "exp/sweep_stats.hpp"

namespace rhw::exp {

constexpr const char* kJournalSchema = "rhw-journal-v1";

std::vector<JournalEntry> load_journal(const std::string& path,
                                       const std::string& header) {
  std::ifstream is(path);
  std::vector<JournalEntry> entries;
  if (!is) return entries;
  std::string line;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    JsonValue doc;
    try {
      doc = parse_json(line);
      if (!saw_header) {
        const std::string schema = doc.at("schema").string_value();
        if (schema != kJournalSchema) {
          throw std::runtime_error("journal " + path + ": unsupported schema '" +
                                   schema + "' (expected " + kJournalSchema +
                                   ")");
        }
        const std::string found = doc.at("header").string_value();
        if (found != header) {
          throw std::runtime_error(
              "journal " + path + ": header mismatch — journal belongs to '" +
              found + "', this run is '" + header +
              "' (same spec, shard and panel required to resume)");
        }
        saw_header = true;
        continue;
      }
      JournalEntry e;
      const std::string type = doc.at("type").string_value();
      if (type == "clean") {
        e.clean = true;
        e.pool = doc.at("pool").string_value();
        e.trial = static_cast<int>(doc.at("trial").number_i64());
        e.clean_acc = doc.at("clean").number();
        e.cert = doc.at("cert").number();
      } else if (type == "cell") {
        e.index = static_cast<size_t>(doc.at("index").number_u64());
        e.adv = doc.at("adv").number();
      } else {
        break;  // unknown entry type: treat like a torn tail, stop replaying
      }
      entries.push_back(e);
    } catch (const std::runtime_error&) {
      // Header problems are fatal; a malformed entry line is the torn tail
      // of a crashed append — stop and let the work re-run.
      if (!saw_header) throw;
      break;
    }
  }
  return entries;
}

SweepJournal::SweepJournal(const std::string& path, const std::string& header,
                           bool append) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  os_.open(path, append ? std::ios::app : std::ios::trunc);
  if (!os_) {
    throw std::runtime_error("journal: cannot open " + path + " for writing");
  }
  if (!append) {
    JsonWriter w(os_);
    w.begin_object();
    w.field("schema", kJournalSchema);
    w.field("header", header);
    w.end_object();
    os_ << '\n';
    os_.flush();
  }
}

void SweepJournal::record(const JournalEntry& entry) {
  std::ostringstream line;
  JsonWriter w(line);
  w.begin_object();
  if (entry.clean) {
    w.field("type", "clean");
    w.field("pool", entry.pool);
    w.field("trial", static_cast<int64_t>(entry.trial));
    w.field("clean", entry.clean_acc);
    w.field("cert", entry.cert);
  } else {
    w.field("type", "cell");
    w.field("index", static_cast<uint64_t>(entry.index));
    w.field("adv", entry.adv);
  }
  w.end_object();
  const std::lock_guard lock(mu_);
  os_ << line.str() << '\n';
  os_.flush();
}

}  // namespace rhw::exp
