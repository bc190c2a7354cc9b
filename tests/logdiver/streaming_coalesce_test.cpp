#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "logdiver/coalesce.hpp"
#include "logdiver/columns.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

ErrorRecord Rec(std::int64_t t, ErrorCategory cat, Severity sev,
                LocScope scope, std::string loc) {
  ErrorRecord rec;
  rec.time = TimePoint(t);
  rec.category = cat;
  rec.severity = sev;
  rec.scope = scope;
  rec.location = Intern(loc);
  rec.source = LogSource::kSyslog;
  return rec;
}

class StreamingCoalesceTest : public ::testing::Test {
 protected:
  StreamingCoalesceTest()
      : machine_(Machine::Testbed(96, 24)),
        coalescer_(machine_, CoalesceConfig{}),
        node0_(machine_.node(0).cname.ToString()) {}
  Machine machine_;
  StreamingCoalescer coalescer_;
  std::string node0_;
};

TEST_F(StreamingCoalesceTest, FlushOnlyClosesExpiredWindows) {
  coalescer_.Add(Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(5000, ErrorCategory::kMemoryUE, Severity::kFatal,
                     LocScope::kNode, node0_));
  // Watermark 2000: only the first tuple's window (1000 + 60s) closed.
  auto flushed = coalescer_.Flush(TimePoint(2000));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].category, ErrorCategory::kMachineCheck);
  EXPECT_EQ(coalescer_.open_tuples(), 1u);
  // Everything closes at FlushAll.
  auto rest = coalescer_.FlushAll();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].category, ErrorCategory::kMemoryUE);
}

TEST_F(StreamingCoalesceTest, BurstMergesAcrossFlushBoundaryCorrectly) {
  coalescer_.Add(Rec(1000, ErrorCategory::kMachineCheck, Severity::kCorrected,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(1030, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  // Watermark before window close: nothing flushes.
  EXPECT_TRUE(coalescer_.Flush(TimePoint(1080)).empty());
  auto flushed = coalescer_.Flush(TimePoint(1200));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].count, 2u);
  EXPECT_EQ(flushed[0].severity, Severity::kFatal);
}

TEST_F(StreamingCoalesceTest, DisplacedTupleSurfacesOnNextFlush) {
  // Two bursts on the same key separated by more than the window: the
  // second Add displaces the first tuple, which must still be returned.
  coalescer_.Add(Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(5000, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  auto flushed = coalescer_.Flush(TimePoint(5001));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].first, TimePoint(1000));
  EXPECT_EQ(coalescer_.open_tuples(), 1u);
}

// --- the incident rule ---------------------------------------------

/// One Lustre syslog line: an error report, or a recovery (`recovered`
/// set to its own time, as the parser emits it).
struct IncidentLine {
  std::int64_t t;
  bool recovery;
};

/// What one coalesced incident must look like.
struct WantIncident {
  std::int64_t first, last;
  std::uint32_t count;
  std::int64_t recovered;
};

struct IncidentCase {
  const char* name;
  std::vector<IncidentLine> lines;
  std::vector<WantIncident> want;
  std::uint64_t input_events;
};

const std::vector<IncidentCase>& IncidentTable() {
  static const std::vector<IncidentCase> table = {
      {"overlapping report is counted",
       {{1000, false}, {1300, false}, {1900, true}},
       {{1000, 1300, 2, 1900}},
       2},
      {"first recovery of a nested pair closes",
       {{1000, false}, {1300, false}, {1500, true}, {1900, true}},
       {{1000, 1300, 2, 1500}},
       2},
      {"stray recovery is dropped",
       {{500, true}, {1000, false}, {1600, true}, {9000, true}},
       {{1000, 1000, 1, 1600}},
       1},
      {"report within the window after a close re-opens",
       {{1000, false}, {1030, true}, {1050, false}, {1700, true}},
       {{1000, 1050, 2, 1700}},
       2},
      {"report past the window opens a new incident",
       {{1000, false}, {1030, true}, {1100, false}, {1700, true}},
       {{1000, 1000, 1, 1030}, {1100, 1100, 1, 1700}},
       2},
      {"open at end gets the default window",
       {{1000, false}, {1200, false}},
       {{1000, 1200, 2, 1000 + 1800}},
       2},
  };
  return table;
}

std::vector<ErrorRecord> IncidentRecords(const IncidentCase& c) {
  std::vector<ErrorRecord> records;
  for (const IncidentLine& line : c.lines) {
    ErrorRecord rec = Rec(line.t, ErrorCategory::kLustre,
                          line.recovery ? Severity::kCorrected
                                        : Severity::kFatal,
                          LocScope::kSystem, "");
    if (line.recovery) rec.recovered = rec.time;
    records.push_back(rec);
  }
  return records;
}

void ExpectSameTuples(const std::vector<ErrorTuple>& want,
                      const std::vector<ErrorTuple>& got,
                      const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << label;
    EXPECT_EQ(want[i].severity, got[i].severity) << label;
    EXPECT_EQ(want[i].first, got[i].first) << label;
    EXPECT_EQ(want[i].last, got[i].last) << label;
    EXPECT_EQ(want[i].count, got[i].count) << label;
    EXPECT_EQ(want[i].recovered, got[i].recovered) << label;
    EXPECT_EQ(want[i].nodes, got[i].nodes) << label;
  }
}

// Batch (CoalesceEvents at pool sizes 1 and 4) and streaming (Flush at
// every line, a snapshot round trip after every line) apply one rule.
TEST_F(StreamingCoalesceTest, IncidentRuleTable) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const IncidentCase& c : IncidentTable()) {
    SCOPED_TRACE(c.name);
    const std::vector<ErrorRecord> records = IncidentRecords(c);
    const ErrorColumns columns = ErrorColumns::FromRecords(records);

    CoalesceStats stats;
    const std::vector<ErrorTuple> batch =
        CoalesceEvents(machine_, columns, CoalesceConfig{}, &stats, &pool1);
    ASSERT_EQ(batch.size(), c.want.size());
    for (std::size_t i = 0; i < c.want.size(); ++i) {
      const WantIncident& want = c.want[i];
      EXPECT_EQ(batch[i].first, TimePoint(want.first));
      EXPECT_EQ(batch[i].last, TimePoint(want.last));
      EXPECT_EQ(batch[i].count, want.count);
      EXPECT_EQ(batch[i].recovered, TimePoint(want.recovered));
      EXPECT_EQ(batch[i].severity, Severity::kFatal);
    }
    EXPECT_EQ(stats.input_events, c.input_events);
    EXPECT_EQ(stats.tuples, c.want.size());

    CoalesceStats stats4;
    ExpectSameTuples(batch,
                     CoalesceEvents(machine_, columns, CoalesceConfig{},
                                    &stats4, &pool4),
                     "pool 4");
    EXPECT_EQ(stats4.input_events, c.input_events);

    auto coalescer = std::make_unique<StreamingCoalescer>(machine_,
                                                          CoalesceConfig{});
    std::vector<ErrorTuple> streamed;
    for (const ErrorRecord& rec : records) {
      coalescer->Add(rec);
      for (ErrorTuple& t : coalescer->Flush(rec.time)) {
        streamed.push_back(std::move(t));
      }
      SnapshotWriter w;
      coalescer->SaveState(w);
      SnapshotReader r(w.bytes());
      coalescer = std::make_unique<StreamingCoalescer>(machine_,
                                                       CoalesceConfig{});
      coalescer->LoadState(r);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
    }
    for (ErrorTuple& t : coalescer->FlushAll()) streamed.push_back(std::move(t));
    ExpectSameTuples(batch, streamed, "streaming");
    EXPECT_EQ(coalescer->stats().input_events, c.input_events);
  }
}

TEST_F(StreamingCoalesceTest, OpenIncidentSurvivesLongGaps) {
  ErrorRecord incident = Rec(1000, ErrorCategory::kLustre, Severity::kFatal,
                             LocScope::kSystem, "");
  coalescer_.Add(incident);
  // Well past the tupling window but unrecovered: must stay open.
  EXPECT_TRUE(coalescer_.Flush(TimePoint(10000)).empty());
  ASSERT_TRUE(coalescer_.EarliestOpenIncident().has_value());
  EXPECT_EQ(*coalescer_.EarliestOpenIncident(), TimePoint(1000));

  // The recovery line merges despite the 2-hour gap and closes it.
  ErrorRecord recovery = Rec(8200, ErrorCategory::kLustre,
                             Severity::kCorrected, LocScope::kSystem, "");
  recovery.recovered = TimePoint(8200);
  coalescer_.Add(recovery);
  EXPECT_FALSE(coalescer_.EarliestOpenIncident().has_value());
  auto flushed = coalescer_.Flush(TimePoint(9000));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].severity, Severity::kFatal);
  ASSERT_TRUE(flushed[0].recovered.has_value());
  EXPECT_EQ(*flushed[0].recovered, TimePoint(8200));
}

TEST_F(StreamingCoalesceTest, StatsTrackEventsAndTuples) {
  coalescer_.Add(Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(1001, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(1002, ErrorCategory::kNodeHeartbeat, Severity::kFatal,
                     LocScope::kNode, "c99-9c9s9n9"));  // unresolved
  (void)coalescer_.FlushAll();
  EXPECT_EQ(coalescer_.stats().input_events, 3u);
  EXPECT_EQ(coalescer_.stats().tuples, 1u);
  EXPECT_EQ(coalescer_.stats().unresolved_locations, 1u);
}

TEST_F(StreamingCoalesceTest, LoadStateRejectsLyingCountsWithoutThrowing) {
  // A payload whose closed (or open) tuple count claims 2^32 - 1 entries
  // must fail the load, not reserve ~400 GB and throw std::bad_alloc.
  for (const bool lie_in_open : {false, true}) {
    SnapshotWriter w;
    w.U64(0);  // input_events
    w.U64(0);  // tuples
    w.U64(0);  // unresolved_locations
    w.U64(1);  // next id
    w.Varint(lie_in_open ? 0xFFFFFFFFu : 0);  // open tuple column rows
    if (!lie_in_open) w.Varint(0xFFFFFFFFu);  // closed tuple column rows
    SnapshotReader r(w.bytes());
    StreamingCoalescer restored(machine_, CoalesceConfig{});
    EXPECT_NO_THROW(restored.LoadState(r));
    EXPECT_FALSE(r.ok()) << (lie_in_open ? "open" : "closed");
  }
}

}  // namespace
}  // namespace ld
