// The replay loader's key pass: LoadReplayInput claims torque, alps and
// hwerr in chunks on a pool and keys every ALPS line from the same
// parse.  Whatever the chunk size, thread count or rotation, its columns
// must equal one serial ClaimedTracker pass and one AlpsParser::ParseLine
// per ALPS line, line for line — the replay merge order and every fleet
// worker's ownership decisions are read from them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/snapshot.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "ld_keypass_" + name + "_" +
         std::to_string(::getpid());
}

std::vector<std::string> ReadAll(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void WriteAll(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

/// Puts `run` unparsable lines before every `every`-th line of `name`,
/// and before its first line, so chunk heads fail to parse at every
/// chunk size under test (whole chunks of them at sizes 1, 2 and 3).
void Dirty(const std::string& dir, const std::string& name, std::size_t every,
           std::size_t run) {
  const std::vector<std::string> lines = ReadAll(dir + "/" + name);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i % every == 0) {
      for (std::size_t k = 0; k < run; ++k) {
        out.push_back("unparsable " + std::to_string(i) + "/" +
                      std::to_string(k));
      }
    }
    out.push_back(lines[i]);
  }
  WriteAll(dir + "/" + name, out);
}

/// Splits `<dir>/<name>` into `<name>.1` (the older half) and `<name>`.
void Rotate(const std::string& dir, const std::string& name) {
  const std::vector<std::string> lines = ReadAll(dir + "/" + name);
  const auto half = static_cast<std::ptrdiff_t>(lines.size() / 2);
  WriteAll(dir + "/" + name + ".1", {lines.begin(), lines.begin() + half});
  WriteAll(dir + "/" + name, {lines.begin() + half, lines.end()});
}

/// The serial reference: one ClaimedTracker over each source, and one
/// AlpsParser::ParseLine per ALPS line for the keys.
cache::ReplayKeys SerialKeys(const LogSetView& views, int base_year) {
  cache::ReplayKeys keys;
  ClaimedTracker tracker(base_year);
  AlpsParser parser;
  const std::vector<std::string_view>* lines[kNumLogSources] = {
      &views.torque, &views.alps, &views.syslog, &views.hwerr};
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    for (const std::string_view line : *lines[s]) {
      keys.claimed[s].push_back(
          tracker.Claim(static_cast<LogSource>(s), line));
    }
  }
  for (const std::string_view line : views.alps) {
    auto rec = parser.ParseLine(line);
    keys.alps.push_back(rec.ok() && rec->has_value() ? AlpsKey::Of(**rec)
                                                     : AlpsKey());
  }
  return keys;
}

void ExpectSameKeys(const cache::ReplayKeys& got,
                    const cache::ReplayKeys& want) {
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    SCOPED_TRACE(LogSourceName(static_cast<LogSource>(s)));
    ASSERT_EQ(got.claimed[s].size(), want.claimed[s].size());
    for (std::size_t i = 0; i < want.claimed[s].size(); ++i) {
      ASSERT_EQ(got.claimed[s][i], want.claimed[s][i]) << "line " << i;
    }
  }
  ASSERT_EQ(got.alps.size(), want.alps.size());
  for (std::size_t i = 0; i < want.alps.size(); ++i) {
    ASSERT_EQ(got.alps[i].bits(), want.alps[i].bits()) << "alps line " << i;
  }
}

/// LoadReplayInput at every chunk size under test and 1 and 4 threads,
/// each against the serial pass.  Returns how many ALPS lines are keyed
/// as records.
std::size_t ExpectChunkedEqualsSerial(const std::string& dir) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(dir);
  auto bundle = OpenBundle(inputs, nullptr);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  if (!bundle.ok()) return 0;
  const LogDiverConfig defaults;
  const cache::ReplayKeys want =
      SerialKeys(bundle->views, defaults.syslog_base_year);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{100},
        kDefaultParseChunkLines}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + ", threads " +
                   std::to_string(threads));
      LogDiverConfig config;
      config.parse_chunk_lines = chunk;
      config.threads = threads;
      auto input = LoadReplayInput(config, inputs);
      EXPECT_TRUE(input.ok()) << input.status().ToString();
      if (input.ok()) ExpectSameKeys(input->keys, want);
    }
  }
  std::size_t records = 0;
  for (const AlpsKey key : want.alps) records += key.is_record() ? 1 : 0;
  return records;
}

TEST(KeyPassTest, ChunkedKeysEqualSerialPassOnUnparsableChunkHeads) {
  ScenarioConfig config = SmallScenario(404);
  config.workload.target_app_runs = 150;
  const Machine machine = MakeMachine(config);
  const std::string dir = TempPath("heads");
  fs::remove_all(dir);
  ASSERT_TRUE(WriteBundle(machine, config, dir).ok());
  Dirty(dir, "torque.log", 5, 3);
  Dirty(dir, "alps.log", 7, 4);
  Dirty(dir, "hwerr.log", 3, 2);
  Dirty(dir, "syslog.log", 11, 1);
  EXPECT_GT(ExpectChunkedEqualsSerial(dir), 100u);
  fs::remove_all(dir);
}

TEST(KeyPassTest, EmptySourcesAndAnUnpackableApid) {
  const std::string dir = TempPath("empty");
  fs::remove_all(dir);
  fs::create_directories(dir);
  WriteAll(dir + "/torque.log", {});
  WriteAll(dir + "/syslog.log", {});
  // hwerr.log is missing altogether; alps has records around a placement
  // whose apid does not fit the key (it is keyed "not a record" and
  // parsed like any keyless line).
  WriteAll(dir + "/alps.log",
           {"garbage",
            "2013-04-01T00:00:10 apsched[1]: placeApp apid=5 jobid=1 "
            "user=u cmd=c nodect=1 nids=3",
            "2013-04-01T00:00:20 apsched[1]: placeApp "
            "apid=9223372036854775809 jobid=1 user=u cmd=c nodect=1 nids=4",
            "2013-04-01T00:00:30 apsys[1]: apid=5 exited, status=0 signal=0",
            "2013-04-01T00:00:40 apsched[1]: placeApp apid=6 jobid=1 "
            "user=u cmd=c nodect=1 nids=1-x"});
  EXPECT_EQ(ExpectChunkedEqualsSerial(dir), 2u);

  auto input = LoadReplayInput(LogDiverConfig{}, StreamInputs::FromBundleDir(dir));
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  const std::vector<AlpsKey>& keys = input->keys.alps;
  ASSERT_EQ(keys.size(), 5u);
  EXPECT_FALSE(keys[0].is_record());
  EXPECT_TRUE(keys[1].placement());
  EXPECT_EQ(keys[1].apid(), 5u);
  EXPECT_FALSE(keys[2].is_record());
  EXPECT_TRUE(keys[3].is_record());
  EXPECT_FALSE(keys[3].placement());
  EXPECT_EQ(keys[3].apid(), 5u);
  EXPECT_FALSE(keys[4].is_record());  // the apid parses, the nids do not
  EXPECT_EQ(input->keys.claimed[0].size(), 0u);
  EXPECT_EQ(input->keys.claimed[3].size(), 0u);
  fs::remove_all(dir);
}

TEST(KeyPassTest, RotatedYearSpanningBundle) {
  ScenarioConfig config = SmallScenario(808);
  config.workload.target_app_runs = 300;
  config.workload.campaign = Duration::Days(400);
  const Machine machine = MakeMachine(config);
  const std::string dir = TempPath("year");
  fs::remove_all(dir);
  ASSERT_TRUE(WriteBundle(machine, config, dir).ok());
  for (const char* name : {"torque.log", "alps.log", "syslog.log"}) {
    Rotate(dir, name);
  }
  EXPECT_GT(ExpectChunkedEqualsSerial(dir), 500u);

  // The bundle does cross a new year: its syslog claims reach the next
  // calendar year.
  auto input = LoadReplayInput(LogDiverConfig{}, StreamInputs::FromBundleDir(dir));
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  const auto& syslog = input->keys.claimed[2];
  ASSERT_FALSE(syslog.empty());
  EXPECT_GT(ToCalendar(syslog.back()).year, LogDiverConfig{}.syslog_base_year);
  fs::remove_all(dir);
}

TEST(KeyPassTest, V4ClaimsEntryIsRejectedAsStaleAndRewritten) {
  ScenarioConfig scenario = SmallScenario(505);
  scenario.workload.target_app_runs = 100;
  const Machine machine = MakeMachine(scenario);
  const std::string dir = TempPath("v4");
  const std::string cache_dir = dir + "_cache";
  fs::remove_all(dir);
  fs::remove_all(cache_dir);
  ASSERT_TRUE(WriteBundle(machine, scenario, dir).ok());
  const StreamInputs inputs = StreamInputs::FromBundleDir(dir);
  LogDiverConfig config;
  config.bundle_cache_dir = cache_dir;

  auto cold = LoadReplayInput(config, inputs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::uint64_t fp = cold->bundle.fingerprint;
  const cache::BundleCache bundle_cache(cache_dir);
  std::array<std::size_t, kNumLogSources> counts{};
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    counts[s] = cold->keys.claimed[s].size();
  }

  // A genuine v4 claims entry: the same claims, no ALPS key column.
  SnapshotWriter w;
  w.U8(2);  // claims entry kind
  w.I32(config.syslog_base_year);
  for (const auto& column : cold->keys.claimed) {
    std::vector<std::int64_t> seconds;
    for (const TimePoint t : column) seconds.push_back(t.unix_seconds());
    PutPodColumn(w, seconds);
  }
  const FramedKind v4{cache::kBundleCacheFile.magic, 4};
  ASSERT_TRUE(
      WriteFramedFile(bundle_cache.ClaimsPath(fp), v4, {w.bytes()}, fp).ok());

  auto stale = bundle_cache.LoadClaims(fp, config.syslog_base_year, counts);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kParseError);
  EXPECT_NE(stale.status().message().find("version"), std::string::npos)
      << stale.status().message();

  // The loader falls back to the key pass and rewrites the entry in the
  // current version, keys included.
  auto rekeyed = LoadReplayInput(config, inputs);
  ASSERT_TRUE(rekeyed.ok()) << rekeyed.status().ToString();
  ExpectSameKeys(rekeyed->keys, cold->keys);
  auto rewritten =
      bundle_cache.LoadClaims(fp, config.syslog_base_year, counts);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  ExpectSameKeys(*rewritten, cold->keys);

  fs::remove_all(dir);
  fs::remove_all(cache_dir);
}

}  // namespace
}  // namespace ld
