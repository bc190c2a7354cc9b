// Fleet subsystem tests: shard ownership, partial-snapshot records and
// the supervisor's happy path + validation edges.  The full worker-fault
// sweep lives in bench/fleet_campaign (ctest label `fleet`).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "logdiver/fleet/supervisor.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/streaming.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

TEST(ShardSpec, EveryIdIsOwnedByExactlyOneShard) {
  for (std::uint32_t count : {1u, 2u, 3u, 8u}) {
    for (std::uint64_t id = 0; id < 1000; ++id) {
      int owners = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        const ShardSpec spec{i, count};
        if (spec.OwnsRun(id)) ++owners;
      }
      EXPECT_EQ(owners, 1) << "id " << id << " count " << count;
    }
  }
}

TEST(ShardSpec, InactiveSpecOwnsEverything) {
  const ShardSpec spec;  // count <= 1: the serial analyzer
  EXPECT_FALSE(spec.active());
  EXPECT_TRUE(spec.OwnsRun(0));
  EXPECT_TRUE(spec.OwnsRun(12345));
  EXPECT_TRUE(spec.OwnsTuple(999));
}

class PartialFileTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) const {
    return testing::TempDir() + "partial_test_" + name;
  }
  fleet::PartialAggregates Make() const {
    fleet::PartialAggregates p;
    p.header.shard_index = 2;
    p.header.shard_count = 4;
    p.header.fingerprint = 0xABCDEF0123456789ull;
    p.runs_finalized = 77;
    p.unterminated_runs = 3;
    p.torque_stats.lines = 123;
    p.coalesce_stats.tuples = 9;
    p.ingest.quarantined = 5;
    return p;
  }
};

TEST_F(PartialFileTest, RoundTripsThroughDisk) {
  const std::string path = Path("roundtrip.ldsnap");
  const fleet::PartialAggregates p = Make();
  ASSERT_TRUE(fleet::WritePartialFile(path, p).ok());
  auto read = fleet::ReadPartialFile(path, {});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->header.shard_index, 2u);
  EXPECT_EQ(read->header.shard_count, 4u);
  EXPECT_EQ(read->header.fingerprint, 0xABCDEF0123456789ull);
  EXPECT_EQ(read->runs_finalized, 77u);
  EXPECT_EQ(read->unterminated_runs, 3u);
  EXPECT_EQ(read->torque_stats.lines, 123u);
  EXPECT_EQ(read->coalesce_stats.tuples, 9u);
  EXPECT_EQ(read->ingest.quarantined, 5u);
  std::filesystem::remove(path);
}

TEST_F(PartialFileTest, TornPartialIsRejected) {
  const std::string path = Path("torn.ldsnap");
  ASSERT_TRUE(fleet::WritePartialFile(path, Make()).ok());
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_FALSE(fleet::ReadPartialFile(path, {}).ok());
  std::filesystem::remove(path);
}

TEST_F(PartialFileTest, HeaderPayloadFingerprintDisagreementIsRejected) {
  // The fingerprint lives both in the file header (checked before
  // payload parsing) and the payload header; a file whose two stamps
  // disagree was assembled from mismatched pieces.
  const std::string path = Path("mixed.ldsnap");
  fleet::PartialAggregates p = Make();
  SnapshotWriter w;
  fleet::SavePartialAggregates(w, p);
  ASSERT_TRUE(WriteSnapshotFile(path, w.bytes(), /*fingerprint=*/42).ok());
  auto read = fleet::ReadPartialFile(path, {});
  EXPECT_FALSE(read.ok());
  std::filesystem::remove(path);
}

class FleetEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config = SmallScenario(606);
    config.workload.target_app_runs = 400;
    machine_ = new Machine(MakeMachine(config));
    bundle_dir_ = new std::string(testing::TempDir() + "fleet_test_bundle_" +
                                  std::to_string(::getpid()));
    std::filesystem::remove_all(*bundle_dir_);
    auto bundle = WriteBundle(*machine_, config, *bundle_dir_);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*bundle_dir_);
    delete bundle_dir_;
    delete machine_;
    bundle_dir_ = nullptr;
    machine_ = nullptr;
  }

  std::string TempFleetDir(const std::string& name) const {
    return *bundle_dir_ + "_" + name;
  }

  static Machine* machine_;
  static std::string* bundle_dir_;
};

Machine* FleetEndToEndTest::machine_ = nullptr;
std::string* FleetEndToEndTest::bundle_dir_ = nullptr;

TEST_F(FleetEndToEndTest, TwoShardsReproduceTheSerialReport) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  const LogDiverConfig config;
  StreamingAnalyzer serial(*machine_, config);
  auto total = ReplayBundle(config, inputs, {}, serial);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  StreamingAnalyzer::Summary summary = serial.Finalize();
  summary.metrics.ingest = summary.ingest;

  fleet::FleetOptions options;
  options.shard_count = 2;
  options.partial_dir = TempFleetDir("partials");
  const fleet::ShardSupervisor supervisor(*machine_, config);
  auto result = supervisor.Run(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(FingerprintReport(result->report),
            FingerprintReport(summary.metrics));
  EXPECT_EQ(result->runs_finalized, summary.runs_finalized);
  EXPECT_EQ(result->coverage.shards_merged, 2u);
  EXPECT_FALSE(result->coverage.degraded());
  ASSERT_EQ(result->shards.size(), 2u);
  EXPECT_TRUE(result->shards[0].completed);
  EXPECT_TRUE(result->shards[1].completed);
  EXPECT_EQ(result->shards[0].attempts, 1);
  std::filesystem::remove_all(options.partial_dir);
}

std::vector<std::string> ReadFileLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void WriteFileLines(const std::string& path,
                    const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

/// Copies the bundle in `from` to `to` and dirties it: replayed
/// placements and terminations, garbage lines, a placement whose apid
/// parses but whose nid list does not, orphan terminations, runs that
/// never terminate, and a Lustre incident that never recovers in the
/// second half of syslog.
void WriteDirtyCopy(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to);
  const std::vector<std::string> alps = ReadFileLines(to + "/alps.log");
  std::vector<std::string> dirty = {"garbage at the head"};
  for (std::size_t i = 0; i < alps.size(); ++i) {
    const std::string& line = alps[i];
    const std::string stamp = line.substr(0, 19);
    dirty.push_back(line);
    if (i % 37 == 5) dirty.push_back(line);  // a replayed record
    if (i % 53 == 7) dirty.push_back("garbage " + std::to_string(i));
    if (i % 97 == 11) {
      dirty.push_back(stamp + " apsys[1]: apid=" + std::to_string(880000 + i) +
                      " exited, status=0 signal=0");  // orphan
    }
    if (i % 89 == 3) {
      dirty.push_back(stamp + " apsched[1]: placeApp apid=" +
                      std::to_string(660000 + i) +
                      " jobid=1 user=u cmd=c nodect=1 nids=3");  // never ends
    }
    if (i == alps.size() / 3) {
      dirty.push_back(stamp +
                      " apsched[1]: placeApp apid=770001 jobid=1 user=u "
                      "cmd=c nodect=2 nids=5-x");
    }
  }
  WriteFileLines(to + "/alps.log", dirty);

  const std::vector<std::string> syslog = ReadFileLines(to + "/syslog.log");
  std::vector<std::string> cut;
  const std::size_t at = syslog.size() / 2;
  for (std::size_t i = 0; i < syslog.size(); ++i) {
    const bool recovery =
        syslog[i].find("sonexion") != std::string::npos &&
        syslog[i].find("recovered") != std::string::npos;
    if (i >= at && recovery) continue;  // nothing closes the incident
    cut.push_back(syslog[i]);
    if (i == at) {
      cut.push_back(syslog[i].substr(0, 15) +
                    " sonexion LustreError: 11-0: snx11003-OST0042: "
                    "operation ost_write failed");
    }
  }
  WriteFileLines(to + "/syslog.log", cut);
}

void ExpectSameParseStats(const ParseStats& a, const ParseStats& b) {
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.malformed, b.malformed);
}

void ExpectSameIngestStats(const IngestStats& a, const IngestStats& b) {
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.quarantine_overflow, b.quarantine_overflow);
  EXPECT_EQ(a.duplicate_placements, b.duplicate_placements);
  EXPECT_EQ(a.duplicate_terminations, b.duplicate_terminations);
  EXPECT_EQ(a.duplicate_job_records, b.duplicate_job_records);
  EXPECT_EQ(a.watermark_regressions, b.watermark_regressions);
  EXPECT_EQ(a.evicted_pending_runs, b.evicted_pending_runs);
  EXPECT_EQ(a.evicted_tuples, b.evicted_tuples);
  EXPECT_EQ(a.budget_exhausted_sources, b.budget_exhausted_sources);
  EXPECT_EQ(a.lines_dropped_after_budget, b.lines_dropped_after_budget);
}

TEST_F(FleetEndToEndTest, DividedAlpsStreamMatchesSerialOnADirtyBundle) {
  // Each worker parses only its own runs' ALPS records and runs the
  // others as shadow runs; dedup, orphans, malformed lines and pending
  // eviction must still come out as the serial analyzer counts them.
  const std::string dir = TempFleetDir("dirty");
  WriteDirtyCopy(*bundle_dir_, dir);
  const StreamInputs inputs = StreamInputs::FromBundleDir(dir);
  LogDiverConfig config;
  config.ingest.max_pending_runs = 8;

  StreamingAnalyzer serial(*machine_, config);
  ASSERT_TRUE(ReplayBundle(config, inputs, {}, serial).ok());
  StreamingAnalyzer::Summary want = serial.Finalize();
  want.metrics.ingest = want.ingest;
  // The dirt took: every path the shadow runs replay is exercised.
  EXPECT_GE(want.alps_stats.malformed, 3u);
  EXPECT_GT(want.orphan_terminations, 0u);
  EXPECT_GT(want.ingest.duplicate_placements, 0u);
  EXPECT_GT(want.ingest.duplicate_terminations, 0u);
  EXPECT_GT(want.ingest.evicted_pending_runs, 0u);
  EXPECT_GT(want.unterminated_runs, 0u);

  for (const std::uint32_t shards : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(shards);
    fleet::FleetOptions options;
    options.shard_count = shards;
    options.partial_dir = TempFleetDir("dirty_partials");
    const fleet::ShardSupervisor supervisor(*machine_, config);
    auto got = supervisor.Run(inputs, options);
    std::filesystem::remove_all(options.partial_dir);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FingerprintReport(got->report), FingerprintReport(want.metrics));
    EXPECT_EQ(got->runs_finalized, want.runs_finalized);
    EXPECT_EQ(got->unterminated_runs, want.unterminated_runs);
    EXPECT_EQ(got->orphan_terminations, want.orphan_terminations);
    ExpectSameIngestStats(got->report.ingest, want.ingest);
    ExpectSameParseStats(got->torque_stats, want.torque_stats);
    ExpectSameParseStats(got->alps_stats, want.alps_stats);
    ExpectSameParseStats(got->syslog_stats, want.syslog_stats);
    ExpectSameParseStats(got->hwerr_stats, want.hwerr_stats);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FleetEndToEndTest, AlpsErrorBudgetTripsAtEveryShardCount) {
  const std::string dir = TempFleetDir("budget");
  WriteDirtyCopy(*bundle_dir_, dir);
  const StreamInputs inputs = StreamInputs::FromBundleDir(dir);
  LogDiverConfig config;
  config.ingest.policy = DegradationPolicy::kFailFast;
  config.ingest.budget.min_malformed = 2;
  config.ingest.budget.max_malformed_fraction = 0.0;

  StreamingAnalyzer serial(*machine_, config);
  ASSERT_TRUE(ReplayBundle(config, inputs, {}, serial).ok());
  const StreamingAnalyzer::Summary want = serial.Finalize();
  ASSERT_EQ(want.ingest_status.code(), StatusCode::kParseError);
  EXPECT_EQ(want.ingest_status.message().rfind("alps:", 0), 0u)
      << want.ingest_status.message();

  for (const std::uint32_t shards : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(shards);
    fleet::FleetOptions options;
    options.shard_count = shards;
    options.partial_dir = TempFleetDir("budget_partials");
    const fleet::ShardSupervisor supervisor(*machine_, config);
    auto got = supervisor.Run(inputs, options);
    std::filesystem::remove_all(options.partial_dir);
    ASSERT_FALSE(got.ok());
    // Every worker trips the same budget and exits ordinarily, so the
    // fleet passes the failure through instead of retrying it.
    EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(got.status().message().find("failed ordinarily"),
              std::string::npos)
        << got.status().message();
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FleetEndToEndTest, CrashedShardIsRetriedAndAbsorbed) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  const LogDiverConfig config;

  fleet::FleetOptions options;
  options.shard_count = 2;
  options.partial_dir = TempFleetDir("crash_partials");
  fleet::FaultPlan plan;
  plan.fault = fleet::WorkerFault::kCrash;
  plan.after_lines = 100;
  options.faults[1] = plan;

  const fleet::ShardSupervisor supervisor(*machine_, config);
  auto result = supervisor.Run(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->coverage.degraded());
  EXPECT_EQ(result->shards[1].crashes, 1);
  EXPECT_EQ(result->shards[1].attempts, 2);
  ASSERT_EQ(result->shards[1].backoff_ms.size(), 1u);
  std::filesystem::remove_all(options.partial_dir);
}

TEST_F(FleetEndToEndTest, FailFastAbortLeavesNoZombies) {
  // Shard 1 crashes on every attempt and exhausts its retries, tripping
  // the fail-fast abort while shard 0 is still parked in a hang.  The
  // abort path must SIGKILL *and reap* every running worker before Run
  // returns — an early return that skips the reap leaks zombies that
  // outlive the supervisor.
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);

  fleet::FleetOptions options;
  options.shard_count = 2;
  options.partial_dir = TempFleetDir("zombie_partials");
  options.max_attempts = 2;
  options.policy = DegradationPolicy::kFailFast;
  options.shard_timeout_ms = 60000;  // the hang outlives the whole test
  fleet::FaultPlan hang;
  hang.fault = fleet::WorkerFault::kHang;
  hang.after_lines = 50;
  hang.persistent = true;
  options.faults[0] = hang;
  fleet::FaultPlan crash;
  crash.fault = fleet::WorkerFault::kCrash;
  crash.after_lines = 50;
  crash.persistent = true;
  options.faults[1] = crash;

  const fleet::ShardSupervisor supervisor(*machine_, LogDiverConfig{});
  auto result = supervisor.Run(inputs, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  // No child of this process may remain, running or zombie.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  std::filesystem::remove_all(options.partial_dir);
}

TEST_F(FleetEndToEndTest, InvalidOptionsAreRejectedUpFront) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  const fleet::ShardSupervisor supervisor(*machine_, LogDiverConfig{});

  fleet::FleetOptions no_dir;
  no_dir.partial_dir.clear();
  EXPECT_EQ(supervisor.Run(inputs, no_dir).status().code(),
            StatusCode::kInvalidArgument);

  fleet::FleetOptions zero_shards;
  zero_shards.shard_count = 0;
  zero_shards.partial_dir = TempFleetDir("zero");
  EXPECT_EQ(supervisor.Run(inputs, zero_shards).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ld
