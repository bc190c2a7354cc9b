// Input generation and the output oracle.  Runs in its own process
// ("ldbench gen"), so neither the simulator's memory nor the oracle's
// shows in the measuring process's peak RSS, and none of it is timed.
//
// The oracle is computed by other paths than the ops it checks:
//   batch ops   -> a 1-thread in-memory Analyze(LogSet) of the bundle's
//                  lines (the ops use the 4-thread mmap AnalyzeBundle);
//   fleet op    -> a serial StreamingAnalyzer replay of the bundle;
//   ladder      -> an in-process TenantShard per tenant (the traced
//                  ladder goes through a logdiverd child's socket).
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <thread>

#include "analysis/scoring.hpp"
#include "bench.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/service/protocol.hpp"
#include "logdiver/service/tenant.hpp"
#include "logdiver/snapshot.hpp"

namespace perfbench {
namespace {

/// All four streams of the bundle, merged chronologically (stable by
/// source on ties), the way the machines emitted them.  Syslog carries
/// no year: it advances when the month wraps backwards.
std::vector<TimedLine> MergeBundle(const ld::LogSet& logs, int base_year) {
  struct Keyed {
    ld::TimePoint time;
    std::size_t order;
    TimedLine line;
  };
  std::vector<Keyed> merged;
  merged.reserve(logs.torque.size() + logs.alps.size() + logs.syslog.size() +
                 logs.hwerr.size());
  const auto add = [&merged](ld::TimePoint t, ld::LogSource source,
                             const std::string& line) {
    merged.push_back({t, merged.size(), TimedLine{source, line}});
  };
  ld::TorqueParser torque;
  for (const std::string& line : logs.torque) {
    auto rec = torque.ParseLine(line);
    if (rec.ok() && rec->has_value()) add((*rec)->time, ld::LogSource::kTorque, line);
  }
  ld::AlpsParser alps;
  for (const std::string& line : logs.alps) {
    auto rec = alps.ParseLine(line);
    if (rec.ok() && rec->has_value()) add((*rec)->time, ld::LogSource::kAlps, line);
  }
  int year = base_year;
  ld::TimePoint previous(0);
  for (const std::string& line : logs.syslog) {
    if (line.size() < 15) continue;
    auto t = ld::SyslogParser::ParseSyslogTime(line.substr(0, 15), year);
    if (t.ok() && *t < previous - ld::Duration::Days(180)) {
      ++year;
      t = ld::SyslogParser::ParseSyslogTime(line.substr(0, 15), year);
    }
    if (!t.ok()) continue;
    previous = *t;
    add(*t, ld::LogSource::kSyslog, line);
  }
  ld::HwerrParser hwerr;
  for (const std::string& line : logs.hwerr) {
    auto rec = hwerr.ParseLine(line);
    if (rec.ok() && rec->has_value()) add((*rec)->time, ld::LogSource::kHwerr, line);
  }
  std::stable_sort(merged.begin(), merged.end(), [](const Keyed& a, const Keyed& b) {
    return a.time < b.time;
  });
  std::vector<TimedLine> out;
  out.reserve(merged.size());
  for (Keyed& k : merged) out.push_back(std::move(k.line));
  return out;
}

bool WriteMerged(const std::string& path, const std::vector<TimedLine>& lines,
                 std::size_t limit) {
  std::ofstream out(path);
  const std::size_t n = std::min(limit, lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    out << static_cast<int>(lines[i].source) << '\t' << lines[i].line << '\n';
  }
  return static_cast<bool>(out);
}

/// Feeds each verified step length's tenants through an in-process
/// TenantShard and records the report reply they must produce.
bool TenantOracle(const ld::Machine& machine, const Ladder& ladder,
                  const std::vector<TimedLine>& merged, KeyValues* oracle) {
  std::set<std::size_t> lengths;
  for (std::size_t step = 0; step < ladder.rates.size(); ++step) {
    if (ladder.Verified(step)) lengths.insert(std::min(ladder.Lines(step), merged.size()));
  }
  std::vector<std::thread> workers;
  std::vector<std::string> results(lengths.size() * kTenants);
  std::vector<std::string> ids(results.size());
  bool ok = true;
  std::mutex ok_mu;
  std::size_t slot = 0;
  for (const std::size_t n : lengths) {
    for (int k = 0; k < kTenants; ++k, ++slot) {
      ids[slot] = TenantOracleKey(n, k);
      workers.emplace_back([&, n, k, slot] {
        const std::string id = "oracle-" + std::to_string(slot);
        const std::string dir = id;
        ld::service::TenantShard shard(id, dir, machine, ld::LogDiverConfig{},
                                       ld::service::TenantLimits{});
        bool good = shard.Start().ok();
        for (std::size_t j = static_cast<std::size_t>(k); good && j < n;
             j += kTenants) {
          for (;;) {
            const std::string reply = shard.Ingest(merged[j].source, merged[j].line);
            const auto verdict = ld::service::ReplyVerdict(reply);
            if (verdict == "BUSY") {
              ::usleep(200);
              continue;
            }
            good = verdict == "OK";
            break;
          }
        }
        good = good && shard.Drain().ok();
        results[slot] = shard.QueryReport();
        shard.Stop();
        std::filesystem::remove_all(dir);
        if (!good) {
          std::lock_guard<std::mutex> lock(ok_mu);
          ok = false;
        }
      });
    }
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t i = 0; i < results.size(); ++i) {
    (*oracle)[ids[i]] = results[i];
  }
  return ok;
}

}  // namespace

bool ReadMerged(const std::string& path, std::vector<TimedLine>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos || tab == 0) return false;
    const int source = std::atoi(line.substr(0, tab).c_str());
    if (source < 0 || source >= static_cast<int>(ld::kNumLogSources)) return false;
    out->push_back({static_cast<ld::LogSource>(source), line.substr(tab + 1)});
  }
  return true;
}

int GenMain(const Args& args) {
  const Workload w = args.workload;
  const ld::ScenarioConfig config = ShapeConfig(w, args.seed);
  const ld::Machine machine = ld::MakeMachine(config);
  KeyValues oracle;

  const auto gen_start = Clock::now();
  auto bundle = ld::WriteBundle(machine, config, kBundleDir);
  if (!bundle.ok()) {
    std::cerr << "perfbench gen: " << bundle.status().ToString() << "\n";
    return 1;
  }
  oracle["gen_s"] = Exact(MsSince(gen_start) / 1000.0);

  ld::LogSet logs;
  for (auto [name, dest] : {std::pair{"torque", &logs.torque},
                            std::pair{"alps", &logs.alps},
                            std::pair{"syslog", &logs.syslog},
                            std::pair{"hwerr", &logs.hwerr}}) {
    auto lines = ld::ReadRotatedLines(std::string(kBundleDir) + "/" + name + ".log");
    if (!lines.ok()) {
      std::cerr << "perfbench gen: " << lines.status().ToString() << "\n";
      return 1;
    }
    *dest = std::move(*lines);
  }
  oracle["lines"] = std::to_string(logs.torque.size() + logs.alps.size() +
                                   logs.syslog.size() + logs.hwerr.size());

  // Reference report: 1 thread, in-memory lines.
  ld::LogDiverConfig serial;
  serial.threads = 1;
  const auto reference = ld::LogDiver(machine, serial).Analyze(logs);
  if (!reference.ok()) {
    std::cerr << "perfbench gen: " << reference.status().ToString() << "\n";
    return 1;
  }
  auto truth = ld::LoadGroundTruth(bundle->truth_path());
  if (!truth.ok()) {
    std::cerr << "perfbench gen: " << truth.status().ToString() << "\n";
    return 1;
  }
  const ld::ScoreReport score =
      ld::ScoreClassification(reference->runs, reference->classified, *truth);
  oracle["batch.fp"] = Hex32(ld::FingerprintReport(reference->metrics));
  oracle["batch.f1"] = Exact(score.system_f1);
  oracle["batch.runs"] = std::to_string(reference->runs.size());

  if (w == Workload::kBwRerun || args.trace) {
    const auto retuned =
        ld::LogDiver(machine, RetunedConfig(serial)).Analyze(logs);
    if (!retuned.ok()) return 1;
    oracle["retune.fp"] = Hex32(ld::FingerprintReport(retuned->metrics));
  }

  // The traced run replays the stream itself and checks fleet against it.
  if (w == Workload::kFleetReplay && !args.trace) {
    const ld::LogDiverConfig stream_config;
    ld::StreamingAnalyzer analyzer(machine, stream_config);
    auto replayed =
        ld::ReplayBundle(stream_config, ld::StreamInputs::FromBundleDir(kBundleDir),
                         ld::ReplaySchedule{}, analyzer);
    if (!replayed.ok()) {
      std::cerr << "perfbench gen: " << replayed.status().ToString() << "\n";
      return 1;
    }
    ld::StreamingAnalyzer::Summary summary = analyzer.Finalize();
    summary.metrics.ingest = summary.ingest;
    oracle["stream.fp"] = Hex32(ld::FingerprintReport(summary.metrics));
  }

  if (args.trace) {
    // A bundle smaller than the ladder needs runs its top rates for less
    // than a full step.
    const Ladder ladder = MakeLadder();
    std::vector<TimedLine> merged = MergeBundle(logs, serial.syslog_base_year);
    if (!WriteMerged(kMergedFile, merged, ladder.MaxLines())) return 1;
    if (!TenantOracle(machine, ladder, merged, &oracle)) {
      std::cerr << "perfbench gen: tenant oracle refused a line\n";
      return 1;
    }
  }

  if (!WriteKeyValues(kOracleFile, oracle)) return 1;
  // Write-back of the fresh inputs must not overlap the timed window.
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(".", ec), end; !ec && it != end;
       it.increment(ec)) {
    const int fd = ::open(it->path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
  std::cout << "perfbench gen: " << WorkloadName(w) << " seed " << args.seed
            << ", " << oracle["lines"] << " lines, " << oracle["gen_s"]
            << " s to simulate\n";
  return 0;
}

}  // namespace perfbench
