// The key-sharded batch coalescer must reproduce the serial one exactly:
// every ErrorTuple field (id included) and CoalesceStats at any pool
// size, on dirty bundles and on the hand-built cases where shard-local
// numbering could drift from the serial feed (id gaps from unresolved
// locations, timestamp ties across keys, open incidents, reopened keys).
// The reference is one StreamingCoalescer fed every record in (time,
// input index) order — the serial definition CoalesceEvents documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "faults/corruptor.hpp"
#include "logdiver/columns.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/snapshot.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

std::vector<ErrorTuple> SerialReference(const Machine& machine,
                                        const ErrorColumns& records,
                                        const CoalesceConfig& config,
                                        CoalesceStats* stats) {
  std::vector<std::uint32_t> order(records.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&records](std::uint32_t a, std::uint32_t b) {
                     return records.time[a] < records.time[b];
                   });
  StreamingCoalescer coalescer(machine, config);
  for (const std::uint32_t i : order) coalescer.Add(records.Row(i));
  std::vector<ErrorTuple> out = coalescer.FlushAll();
  *stats = coalescer.stats();
  return out;
}

void ExpectSameTuples(const std::vector<ErrorTuple>& want,
                      const std::vector<ErrorTuple>& got,
                      const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ErrorTuple& a = want[i];
    const ErrorTuple& b = got[i];
    EXPECT_EQ(a.id, b.id) << label << " tuple " << i;
    EXPECT_EQ(a.category, b.category) << label << " tuple " << i;
    EXPECT_EQ(a.severity, b.severity) << label << " tuple " << i;
    EXPECT_EQ(a.scope, b.scope) << label << " tuple " << i;
    EXPECT_EQ(a.location, b.location) << label << " tuple " << i;
    EXPECT_EQ(a.nodes, b.nodes) << label << " tuple " << i;
    EXPECT_EQ(a.first, b.first) << label << " tuple " << i;
    EXPECT_EQ(a.last, b.last) << label << " tuple " << i;
    EXPECT_EQ(a.recovered, b.recovered) << label << " tuple " << i;
    EXPECT_EQ(a.count, b.count) << label << " tuple " << i;
    EXPECT_EQ(a.from_syslog, b.from_syslog) << label << " tuple " << i;
    EXPECT_EQ(a.from_hwerr, b.from_hwerr) << label << " tuple " << i;
  }
}

void ExpectSameStats(const CoalesceStats& a, const CoalesceStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.input_events, b.input_events) << label;
  EXPECT_EQ(a.tuples, b.tuples) << label;
  EXPECT_EQ(a.unresolved_locations, b.unresolved_locations) << label;
}

/// Checks CoalesceEvents against the serial reference at 1/2/4/8
/// threads and returns the reference tuples.
std::vector<ErrorTuple> ExpectMatchesSerial(const Machine& machine,
                                            const ErrorColumns& records,
                                            const CoalesceConfig& config = {}) {
  CoalesceStats want_stats;
  const std::vector<ErrorTuple> want =
      SerialReference(machine, records, config, &want_stats);
  for (const int threads : {1, 2, 4, 8}) {
    std::optional<ThreadPool> pool;
    if (threads > 1) pool.emplace(threads);
    CoalesceStats got_stats;
    const std::vector<ErrorTuple> got = CoalesceEvents(
        machine, records, config, &got_stats, pool ? &*pool : nullptr);
    const std::string label = std::to_string(threads) + " threads";
    ExpectSameTuples(want, got, label);
    ExpectSameStats(want_stats, got_stats, label);
  }
  return want;
}

ErrorRecord Rec(std::int64_t t, ErrorCategory cat, LocScope scope,
                const std::string& loc) {
  ErrorRecord rec;
  rec.time = TimePoint(t);
  rec.category = cat;
  rec.severity = Severity::kCorrected;
  rec.scope = scope;
  rec.location = Intern(loc);
  rec.source = LogSource::kSyslog;
  return rec;
}

class ParallelCoalesce : public ::testing::Test {
 protected:
  ParallelCoalesce() : machine_(Machine::Testbed(96, 24)) {}

  std::string Node(std::size_t i) const {
    return machine_.node(static_cast<NodeIndex>(i)).cname.ToString();
  }

  Machine machine_;
};

TEST_F(ParallelCoalesce, DirtyBundlesMatchSerialAtEveryThreadCount) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    ScenarioConfig config = SmallScenario(seed);
    config.workload.target_app_runs = 400;
    const Machine machine = MakeMachine(config);
    auto campaign = RunCampaign(machine, config);
    ASSERT_TRUE(campaign.ok());
    EmittedLogs logs = campaign->logs;
    CorruptorConfig cc;
    cc.rate = 0.05;
    cc.ops = LogCorruptor::AllOps();
    LogCorruptor(cc).CorruptBundle(logs, Rng(seed).Fork("corruptor"));
    const LogSet set{logs.torque, logs.alps, logs.syslog, logs.hwerr};
    const LogDiver diver(machine, LogDiverConfig{});
    auto parsed = diver.ParseLogs(LogSetView(set), nullptr);
    ASSERT_TRUE(parsed.ok());
    ASSERT_GT(parsed->errors.size(), 50u) << "seed " << seed;
    const auto tuples = ExpectMatchesSerial(machine, parsed->errors);
    EXPECT_FALSE(tuples.empty()) << "seed " << seed;
  }
}

TEST_F(ParallelCoalesce, UnresolvedLocationsLeaveIdGaps) {
  // Dropped tuples still consume the id their creating record drew, so
  // the surviving ids skip them exactly as the serial feed does.
  ErrorColumns records;
  for (int i = 0; i < 40; ++i) {
    const std::string loc = i % 3 == 1 ? "c9-9c9s9n" + std::to_string(i)
                                       : Node(static_cast<std::size_t>(i));
    records.push_back(
        Rec(1000 + i, ErrorCategory::kMachineCheck, LocScope::kNode, loc));
  }
  const auto tuples = ExpectMatchesSerial(machine_, records);
  ASSERT_EQ(tuples.size(), 27u);
  EXPECT_EQ(tuples[0].id, 1u);
  EXPECT_EQ(tuples[1].id, 3u);  // id 2 went to an unresolved location
  EXPECT_EQ(tuples.back().id, 40u);
}

TEST_F(ParallelCoalesce, EqualTimestampsAcrossKeysNumberByInputIndex) {
  // Every key fires at the same instant; ids follow input order, whichever
  // shard each key lands in.
  ErrorColumns records;
  for (int i = 47; i >= 0; --i) {
    records.push_back(Rec(5000, ErrorCategory::kMachineCheck,
                          LocScope::kNode, Node(static_cast<std::size_t>(i))));
  }
  for (int i = 0; i < 48; ++i) {
    records.push_back(Rec(5000, ErrorCategory::kGpuXid, LocScope::kNode,
                          Node(static_cast<std::size_t>(i))));
  }
  const auto tuples = ExpectMatchesSerial(machine_, records);
  ASSERT_EQ(tuples.size(), 96u);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(tuples[i].id, i + 1);
  }
  EXPECT_EQ(tuples[0].location, Intern(Node(47)));
  EXPECT_EQ(tuples[48].category, ErrorCategory::kGpuXid);
}

TEST_F(ParallelCoalesce, OpenIncidentGetsDefaultRecoveryWindow) {
  ErrorColumns records;
  records.push_back(
      Rec(2000, ErrorCategory::kLustre, LocScope::kSystem, ""));
  records.push_back(
      Rec(2500, ErrorCategory::kLustre, LocScope::kSystem, ""));  // merges
  for (int i = 0; i < 24; ++i) {
    records.push_back(Rec(1990 + i * 20, ErrorCategory::kMachineCheck,
                          LocScope::kNode, Node(static_cast<std::size_t>(i))));
  }
  const auto tuples = ExpectMatchesSerial(machine_, records);
  const auto incident =
      std::find_if(tuples.begin(), tuples.end(), [](const ErrorTuple& t) {
        return t.scope == LocScope::kSystem;
      });
  ASSERT_NE(incident, tuples.end());
  EXPECT_EQ(incident->count, 2u);
  ASSERT_TRUE(incident->recovered.has_value());
  EXPECT_EQ(*incident->recovered, TimePoint(2000 + 1800));
}

TEST_F(ParallelCoalesce, DisplacedKeyReopensWithItsSerialId) {
  // One key bursts, goes quiet past the window, and bursts again while
  // other keys keep creating tuples in between: the reopened tuple takes
  // the id the serial feed gives it, not the next id of its shard.
  ErrorColumns records;
  const std::string hot = Node(5);
  for (int burst = 0; burst < 3; ++burst) {
    const std::int64_t base = 10000 + burst * 1000;
    for (int i = 0; i < 4; ++i) {
      records.push_back(Rec(base + i * 5, ErrorCategory::kMachineCheck,
                            LocScope::kNode, hot));
    }
    for (int k = 0; k < 16; ++k) {
      records.push_back(Rec(base + 100 + k, ErrorCategory::kMachineCheck,
                            LocScope::kNode,
                            Node(static_cast<std::size_t>(30 + k))));
    }
  }
  const auto tuples = ExpectMatchesSerial(machine_, records);
  std::vector<std::uint64_t> hot_ids;
  for (const ErrorTuple& t : tuples) {
    if (t.location == Intern(hot)) {
      EXPECT_EQ(t.count, 4u);
      hot_ids.push_back(t.id);
    }
  }
  EXPECT_EQ(hot_ids, (std::vector<std::uint64_t>{1, 18, 35}));
}

TEST_F(ParallelCoalesce, EmptyInput) {
  const ErrorColumns records;
  const auto tuples = ExpectMatchesSerial(machine_, records);
  EXPECT_TRUE(tuples.empty());
  CoalesceStats stats;
  stats.input_events = 7;
  ThreadPool pool(4);
  EXPECT_TRUE(CoalesceEvents(machine_, records, {}, &stats, &pool).empty());
  EXPECT_EQ(stats.input_events, 0u);
  EXPECT_EQ(stats.tuples, 0u);
}

TEST_F(ParallelCoalesce, AnalyzeBundleIdenticalAtOneAndFourThreads) {
  // End to end through AnalyzeBundle, where coalesce also overlaps
  // reconstruct on the pool: attribution ids and report bytes must not
  // depend on the thread count.
  const ScenarioConfig config = [] {
    ScenarioConfig c = SmallScenario(31);
    c.workload.target_app_runs = 600;
    return c;
  }();
  const Machine machine = MakeMachine(config);
  const std::string dir = ::testing::TempDir() + "/ld_parallel_coalesce";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WriteBundle(machine, config, dir).ok());

  std::vector<std::vector<std::uint8_t>> reports;
  std::vector<std::vector<std::uint64_t>> tuple_ids;
  for (const int threads : {1, 4}) {
    LogDiverConfig diver_config;
    diver_config.threads = threads;
    auto result = LogDiver(machine, diver_config).AnalyzeBundle(dir);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::uint64_t> ids;
    for (const ClassifiedRun& c : result->classified) ids.push_back(c.tuple_id);
    tuple_ids.push_back(std::move(ids));
    SnapshotWriter w;
    SaveMetricsReport(w, result->metrics);
    reports.push_back(w.TakeBytes());
  }
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(tuple_ids[0].empty());
  EXPECT_GT(std::count_if(tuple_ids[0].begin(), tuple_ids[0].end(),
                          [](std::uint64_t id) { return id != 0; }),
            0);
  EXPECT_EQ(tuple_ids[0], tuple_ids[1]);
  EXPECT_EQ(reports[0], reports[1]);
}

}  // namespace
}  // namespace ld
