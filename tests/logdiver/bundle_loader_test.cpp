// The one bundle loader and the one claimed-time clock.
//
// OpenBundle is what batch, resume, replay and the fleet read a bundle
// through, and ClaimedTracker is the only code that claims lines.  The
// mode-agreement suite holds batch and every replay mode to one report
// on three bundles the loaders used to disagree on: a rotated one, one
// without hwerr.log, and a full-machine bundle that spans a new year.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "common/crashpoint.hpp"
#include "common/obs/manifest.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/names.hpp"
#include "faults/ledger.hpp"
#include "logdiver/fleet/supervisor.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/service/journal.hpp"
#include "logdiver/service/tenant.hpp"
#include "logdiver/snapshot.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "ld_loader_" + name + "_" +
         std::to_string(::getpid());
}

std::vector<std::string> ReadAll(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void WriteAll(const std::string& path, const std::vector<std::string>& lines,
              std::size_t begin, std::size_t end) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = begin; i < end; ++i) out << lines[i] << "\n";
}

/// Splits `<dir>/<name>` into `<name>.1` (the older half) and `<name>`.
void Rotate(const std::string& dir, const std::string& name) {
  const std::vector<std::string> lines = ReadAll(dir + "/" + name);
  const std::size_t half = lines.size() / 2;
  WriteAll(dir + "/" + name + ".1", lines, 0, half);
  WriteAll(dir + "/" + name, lines, half, lines.size());
}

std::uint64_t BundleBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".log") != std::string::npos) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

// --- the claimed-time clock -------------------------------------------

struct ClaimCase {
  const char* line;
  const char* claim;  // ISO; the carried claim for unparsable lines
};

// One table for every claimer: a December -> January rollover, a skewed
// node still stamping December after it, and an unparsable line that
// keeps the last claim.
const std::vector<ClaimCase>& ClaimTable() {
  static const std::vector<ClaimCase> table = {
      {"Dec 31 23:58:00 c0-0c0s0n0 kernel: a", "2013-12-31T23:58:00"},
      {"Jan  1 00:01:00 c0-0c0s0n1 kernel: b", "2014-01-01T00:01:00"},
      {"Dec 31 23:59:30 c0-0c0s0n2 kernel: skewed", "2013-12-31T23:59:30"},
      {"Jan  1 00:02:00 c0-0c0s0n3 kernel: c", "2014-01-01T00:02:00"},
      {"garbage without a stamp", "2014-01-01T00:02:00"},
      {"Feb  3 04:05:06 c0-0c0s0n4 kernel: d", "2014-02-03T04:05:06"},
  };
  return table;
}

TEST(ClaimedTrackerTest, RolloverSkewAndUnparsableTable) {
  ClaimedTracker tracker(2013);
  for (const ClaimCase& c : ClaimTable()) {
    EXPECT_EQ(tracker.Claim(LogSource::kSyslog, c.line).ToIso(), c.claim)
        << c.line;
  }
}

TEST(ClaimedTrackerTest, ReplayLoaderAndTenantClaimByTheTable) {
  const std::string dir = TempPath("claims");
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> lines;
  for (const ClaimCase& c : ClaimTable()) lines.push_back(c.line);
  WriteAll(dir + "/syslog.log", lines, 0, lines.size());
  WriteAll(dir + "/torque.log", {}, 0, 0);
  WriteAll(dir + "/alps.log", {}, 0, 0);

  // The replay loader.
  LogDiverConfig config;
  auto input = LoadReplayInput(config, StreamInputs::FromBundleDir(dir));
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  const auto& syslog = input->keys.claimed[static_cast<int>(LogSource::kSyslog)];
  ASSERT_EQ(syslog.size(), ClaimTable().size());
  for (std::size_t i = 0; i < syslog.size(); ++i) {
    EXPECT_EQ(syslog[i].ToIso(), ClaimTable()[i].claim) << i;
  }

  // The service tenant journals each line with its claim.
  const Machine machine = Machine::Testbed(4, 2);
  {
    service::TenantShard tenant("t", dir + "/tenant", machine, config,
                                service::TenantLimits{});
    ASSERT_TRUE(tenant.Start().ok());
    for (const ClaimCase& c : ClaimTable()) {
      tenant.Ingest(LogSource::kSyslog, c.line);
    }
    ASSERT_TRUE(tenant.Drain().ok());
    tenant.Stop();
  }
  std::vector<std::string> journaled;
  auto replayed = service::TenantJournal::Replay(
      dir + "/tenant/journal.ldj", 0,
      [&journaled](const service::JournalRecord& rec) {
        journaled.push_back(rec.claimed.ToIso());
      });
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(journaled.size(), ClaimTable().size());
  for (std::size_t i = 0; i < journaled.size(); ++i) {
    EXPECT_EQ(journaled[i], ClaimTable()[i].claim) << i;
  }
  fs::remove_all(dir);
}

// --- the loader -----------------------------------------------------------

class BundleLoaderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config = SmallScenario(313);
    config.workload.target_app_runs = 300;
    machine_ = new Machine(MakeMachine(config));
    dir_ = new std::string(TempPath("bundle"));
    fs::remove_all(*dir_);
    ASSERT_TRUE(WriteBundle(*machine_, config, *dir_).ok());
  }
  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    delete machine_;
  }
  static Machine* machine_;
  static std::string* dir_;
};

Machine* BundleLoaderTest::machine_ = nullptr;
std::string* BundleLoaderTest::dir_ = nullptr;

TEST_F(BundleLoaderTest, MissingHwerrReadsEmptyOtherSourcesRequired) {
  const std::string dir = TempPath("nohwerr");
  fs::remove_all(dir);
  fs::copy(*dir_, dir);
  fs::remove(dir + "/hwerr.log");
  auto bundle = OpenBundle(StreamInputs::FromBundleDir(dir), nullptr);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_TRUE(bundle->views.hwerr.empty());
  EXPECT_FALSE(bundle->views.alps.empty());

  fs::remove(dir + "/torque.log");
  auto missing = OpenBundle(StreamInputs::FromBundleDir(dir), nullptr);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  fs::remove_all(dir);
}

TEST_F(BundleLoaderTest, ManifestInputsCoverEveryRotatedSegment) {
  const std::string dir = TempPath("manifest");
  fs::remove_all(dir);
  fs::copy(*dir_, dir);
  Rotate(dir, "alps.log");
  Rotate(dir, "syslog.log");
  auto segments = BundleSegments(StreamInputs::FromBundleDir(dir));
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  obs::ManifestBuilder manifest("bundle_loader_test");
  for (const BundleSegment& segment : *segments) {
    manifest.AddInput(segment.path);
  }
  // Per family: the bytes the manifest lists against the bytes on disk.
  const std::string json = manifest.ToJson();
  const std::regex input("\"path\": \"[^\"]*/(\\w+)\\.log[.0-9]*\",\\s*"
                         "\"bytes\": (\\d+)");
  std::map<std::string, std::uint64_t> listed;
  for (std::sregex_iterator it(json.begin(), json.end(), input), end;
       it != end; ++it) {
    listed[(*it)[1]] += std::stoull((*it)[2]);
  }
  std::map<std::string, std::uint64_t> on_disk;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const std::size_t log = name.find(".log");
    if (log != std::string::npos) {
      on_disk[name.substr(0, log)] += entry.file_size();
    }
  }
  EXPECT_EQ(segments->size(), 6u);  // alps and syslog in two segments
  EXPECT_EQ(listed, on_disk);
  fs::remove_all(dir);
}

#if !defined(LOGDIVER_OBS_DISABLED)
std::uint64_t BytesMapped() {
  return obs::Registry::Get()
      .GetCounter(obs::names::kIngestBytesMappedTotal)
      .Value();
}

TEST_F(BundleLoaderTest, WarmCacheRunCountsOnlyBundleBytes) {
  const std::string cache_dir = TempPath("bytes_cache");
  fs::remove_all(cache_dir);
  LogDiverConfig config;
  config.bundle_cache_dir = cache_dir;
  const LogDiver diver(*machine_, config);
  ASSERT_TRUE(diver.AnalyzeBundle(*dir_).ok());  // cold: writes the entry
  const std::uint64_t before = BytesMapped();
  auto warm = diver.AnalyzeBundle(*dir_);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->cache_outcome, CacheOutcome::kHit);
  // The cache entry is mapped too, but it is not bundle input.
  EXPECT_EQ(BytesMapped() - before, BundleBytes(*dir_));
  fs::remove_all(cache_dir);
}

TEST_F(BundleLoaderTest, FleetParentMapsTheBundleOnce) {
  const std::string partials = TempPath("bytes_partials");
  fleet::FleetOptions options;
  options.shard_count = 3;
  options.partial_dir = partials;
  const fleet::ShardSupervisor supervisor(*machine_, LogDiverConfig{});
  const std::uint64_t before = BytesMapped();
  auto fleet = supervisor.Run(StreamInputs::FromBundleDir(*dir_), options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  // Partial files are mapped back in for the merge; only the bundle
  // counts, and only once for the whole fleet.
  EXPECT_EQ(BytesMapped() - before, BundleBytes(*dir_));
  fs::remove_all(partials);
}
#endif  // !LOGDIVER_OBS_DISABLED

// --- mode agreement -----------------------------------------------------

/// One report per mode over the same bundle: batch and every replay mode.
struct ModeReports {
  std::uint32_t batch = 0;
  std::uint32_t replay = 0;
  std::uint32_t resume = 0;
  bool crash_resume_matches = false;
  std::uint32_t fleet1 = 0;
  std::uint32_t fleet3 = 0;
  std::uint64_t runs = 0;
  MetricsReport report;  // the replay's
};

ModeReports RunModes(const Machine& machine, const std::string& dir) {
  ModeReports out;
  const StreamInputs inputs = StreamInputs::FromBundleDir(dir);
  const LogDiverConfig config;

  auto batch = LogDiver(machine, config).AnalyzeBundle(dir);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (batch.ok()) out.batch = FingerprintReport(batch->metrics);

  StreamingAnalyzer analyzer(machine, config);
  auto total = ReplayBundle(config, inputs, ReplaySchedule{}, analyzer);
  EXPECT_TRUE(total.ok()) << total.status().ToString();
  if (!total.ok()) return out;
  const StreamingAnalyzer::Summary summary = analyzer.Finalize();
  out.report = summary.metrics;
  out.replay = FingerprintReport(summary.metrics);
  out.runs = summary.runs_finalized;

  auto resumed = RunResumableAnalysis(machine, config, inputs, {});
  EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
  if (resumed.ok()) out.resume = FingerprintReport(resumed->summary.metrics);

  // Crash halfway, restart from the newest snapshot.
  const std::string snaps = dir + "_snaps";
  fs::remove_all(snaps);
  ResumeOptions options;
  options.snapshot_dir = snaps;
  options.snapshot_interval = *total / 7 + 1;
  const std::uint32_t want = out.replay;
  const auto outcome = CrashSupervisor::Run([&](int attempt) -> int {
    if (attempt == 0) {
      ArmCrashPoint(*total / 2);
    } else {
      DisarmCrashPoint();
    }
    auto result = RunResumableAnalysis(machine, config, inputs, options);
    if (!result.ok()) return 2;
    if (attempt > 0 && result->resumed_generation == 0) return 3;
    return FingerprintReport(result->summary.metrics) == want ? 0 : 1;
  });
  out.crash_resume_matches = outcome.exit_code == 0 && outcome.crashes == 1;
  fs::remove_all(snaps);

  for (const std::uint32_t shards : {1u, 3u}) {
    fleet::FleetOptions fleet_options;
    fleet_options.shard_count = shards;
    fleet_options.partial_dir = dir + "_partials";
    const fleet::ShardSupervisor supervisor(machine, config);
    auto fleet = supervisor.Run(inputs, fleet_options);
    EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
    fs::remove_all(fleet_options.partial_dir);
    if (!fleet.ok()) continue;
    (shards == 1 ? out.fleet1 : out.fleet3) = FingerprintReport(fleet->report);
  }
  return out;
}

void ExpectModesAgree(const ModeReports& m) {
  EXPECT_EQ(m.replay, m.batch);
  EXPECT_EQ(m.resume, m.replay);
  EXPECT_TRUE(m.crash_resume_matches);
  EXPECT_EQ(m.fleet1, m.replay);
  EXPECT_EQ(m.fleet3, m.replay);
}

const CategoryRow* Row(const MetricsReport& report, ErrorCategory category) {
  for (const CategoryRow& row : report.categories) {
    if (row.category == category) return &row;
  }
  return nullptr;
}

class ModeAgreementTest : public ::testing::Test {
 protected:
  std::string Copy(const std::string& from, const std::string& name) {
    const std::string dir = TempPath(name);
    fs::remove_all(dir);
    fs::copy(from, dir);
    dirs_.push_back(dir);
    return dir;
  }
  void TearDown() override {
    for (const std::string& dir : dirs_) fs::remove_all(dir);
  }
  std::vector<std::string> dirs_;
};

TEST_F(ModeAgreementTest, RotatedAndHwerrLessBundles) {
  ScenarioConfig config = SmallScenario(515);
  config.workload.target_app_runs = 600;
  const Machine machine = MakeMachine(config);
  const std::string plain = TempPath("modes_plain");
  fs::remove_all(plain);
  dirs_.push_back(plain);
  ASSERT_TRUE(WriteBundle(machine, config, plain).ok());
  const ModeReports unrotated = RunModes(machine, plain);
  ExpectModesAgree(unrotated);

  const std::string rotated = Copy(plain, "modes_rotated");
  Rotate(rotated, "alps.log");
  Rotate(rotated, "syslog.log");
  const ModeReports r = RunModes(machine, rotated);
  ExpectModesAgree(r);
  EXPECT_EQ(r.replay, unrotated.replay);
  auto batch = LogDiver(machine, {}).AnalyzeBundle(rotated);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(r.runs, batch->runs.size());

  const std::string hwerrless = Copy(plain, "modes_nohwerr");
  fs::remove(hwerrless + "/hwerr.log");
  const ModeReports h = RunModes(machine, hwerrless);
  ExpectModesAgree(h);
  auto hwerr_batch = LogDiver(machine, {}).AnalyzeBundle(hwerrless);
  ASSERT_TRUE(hwerr_batch.ok()) << hwerr_batch.status().ToString();
  EXPECT_EQ(h.runs, hwerr_batch->runs.size());
}

TEST_F(ModeAgreementTest, YearSpanningFullMachineBundle) {
  ScenarioConfig config;  // full machine
  config.seed = 7;
  config.workload.target_app_runs = 2000;
  config.workload.campaign = Duration::Days(518);
  const Machine machine = MakeMachine(config);
  const std::string dir = TempPath("modes_year");
  fs::remove_all(dir);
  dirs_.push_back(dir);
  ASSERT_TRUE(WriteBundle(machine, config, dir).ok());

  const ModeReports m = RunModes(machine, dir);
  ExpectModesAgree(m);
  EXPECT_EQ(m.report.ingest.watermark_regressions, 0u);

  auto batch = LogDiver(machine, {}).AnalyzeBundle(dir);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(m.runs, batch->runs.size());

  // One event per detected Lustre incident, as the injector's ledger
  // counts them: every error line counts once, overlapping reports
  // included, and no recovery line does.
  auto campaign = RunCampaign(machine, config);
  ASSERT_TRUE(campaign.ok()) << campaign.status().ToString();
  const FaultLedger ledger =
      BuildFaultLedger(campaign->workload, campaign->injection);
  const CategoryTally& lustre =
      ledger.by_category[static_cast<std::size_t>(ErrorCategory::kLustre)];
  const CategoryRow* row = Row(batch->metrics, ErrorCategory::kLustre);
  ASSERT_NE(row, nullptr);
  EXPECT_GT(row->raw_events, 0u);
  EXPECT_EQ(row->raw_events, lustre.injected - lustre.undetected);
}

}  // namespace
}  // namespace ld
