#include "logdiver/resume.hpp"

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/child_process.hpp"
#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

/// Resume payload layout: the per-source replay offsets wrap the
/// analyzer state (docs/FORMATS.md "snapshot — analyzer checkpoint
/// files").
constexpr std::uint32_t kResumeStateVersion = 1;

/// Per-line claimed times of one source, in file order.  Lines that do
/// not parse carry the last claimed time of their source — a real
/// shipper cannot drop what it cannot read.  Recomputed from line zero
/// on every (re)start with throwaway parsers, so the merge order never
/// depends on restored state.
std::vector<TimePoint> ClaimedTimes(const std::vector<std::string>& lines,
                                    LogSource source, int base_year) {
  std::vector<TimePoint> times;
  times.reserve(lines.size());
  TorqueParser torque;
  AlpsParser alps;
  HwerrParser hwerr;
  TimePoint last;
  for (const std::string& line : lines) {
    switch (source) {
      case LogSource::kTorque: {
        auto rec = torque.ParseLine(line);
        if (rec.ok() && rec->has_value()) last = (*rec)->time;
        break;
      }
      case LogSource::kAlps: {
        auto rec = alps.ParseLine(line);
        if (rec.ok() && rec->has_value()) last = (*rec)->time;
        break;
      }
      case LogSource::kSyslog: {
        if (line.size() >= 15) {
          auto t = SyslogParser::ParseSyslogTime(line.substr(0, 15),
                                                 base_year);
          if (t.ok()) last = *t;
        }
        break;
      }
      case LogSource::kHwerr: {
        auto rec = hwerr.ParseLine(line);
        if (rec.ok() && rec->has_value()) last = (*rec)->time;
        break;
      }
    }
    times.push_back(last);
  }
  return times;
}

/// LinesFingerprint over the four sources' lines as read from disk.
std::uint64_t FingerprintLines(
    const std::vector<std::string> (&lines)[kNumLogSources],
    std::uint32_t shard_count) {
  LogSetView views;
  std::vector<std::string_view>* view_cols[kNumLogSources] = {
      &views.torque, &views.alps, &views.syslog, &views.hwerr};
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    view_cols[s]->assign(lines[s].begin(), lines[s].end());
  }
  return cache::LinesFingerprint(views, shard_count);
}

/// The four sources of a bundle, loaded into memory with their per-line
/// claimed times — everything the deterministic merge loop needs.
struct LoadedBundle {
  std::vector<std::string> lines[kNumLogSources];
  std::vector<TimePoint> claimed[kNumLogSources];
  /// LinesFingerprint(lines, 0); computed only when the caller asks for
  /// it or the claims cache needs it (0 otherwise).
  std::uint64_t fingerprint = 0;
};

/// Reads the bundle once.  `want_fingerprint` hashes the lines already
/// in memory (the claims cache hashes them anyway); fleet workers, who
/// get their fingerprint from the supervisor, pass false and, without a
/// cache directory, pay no hash pass.
Result<LoadedBundle> LoadBundle(const StreamInputs& inputs,
                                const LogDiverConfig& config,
                                bool want_fingerprint,
                                BundleLoadStats* stats = nullptr) {
  BundleLoadStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  LoadedBundle bundle;
  const std::string* paths[kNumLogSources] = {
      &inputs.torque_path, &inputs.alps_path, &inputs.syslog_path,
      &inputs.hwerr_path};
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    LD_ASSIGN_OR_RETURN(bundle.lines[s], ReadLines(*paths[s]));
  }
  const int base_year = config.syslog_base_year;
  if (want_fingerprint || !config.bundle_cache_dir.empty()) {
    bundle.fingerprint = FingerprintLines(bundle.lines, 0);
  }
  if (config.bundle_cache_dir.empty()) {
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      bundle.claimed[s] = ClaimedTimes(bundle.lines[s],
                                       static_cast<LogSource>(s), base_year);
    }
    return bundle;
  }

  // Claimed-time cache: the throwaway re-parse above is pure overhead on
  // a bundle this process family has already seen.  Keyed by the same
  // lines fingerprint as the snapshot headers (shard_count 0: claims are
  // partition-independent), so every fleet worker shares one entry.
  const cache::BundleCache bundle_cache(config.bundle_cache_dir,
                                        config.bundle_cache_max_bytes);
  std::array<std::size_t, kNumLogSources> line_counts{};
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    line_counts[s] = bundle.lines[s].size();
  }
  const std::uint64_t fingerprint = bundle.fingerprint;
  auto claims = bundle_cache.LoadClaims(fingerprint, base_year, line_counts);
  if (claims.ok()) {
    ++stats->cache_hits;
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      bundle.claimed[s] = std::move((*claims)[s]);
    }
    return bundle;
  }
  if (claims.status().code() != StatusCode::kNotFound) {
    // Rejected entry (torn/stale/foreign): fall back loudly, never
    // silently — the reparse below restores correctness either way.
    ++stats->cache_rejected;
    std::fprintf(stderr, "logdiver: %s\n",
                 claims.status().message().c_str());
  } else {
    ++stats->cache_misses;
  }
  cache::ClaimedColumns fresh;
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    bundle.claimed[s] = ClaimedTimes(bundle.lines[s],
                                     static_cast<LogSource>(s), base_year);
    fresh[s] = bundle.claimed[s];
  }
  const Status stored =
      bundle_cache.StoreClaims(fingerprint, base_year, fresh);
  if (!stored.ok()) {
    std::fprintf(stderr, "logdiver: %s\n", stored.message().c_str());
  } else {
    ++stats->cache_stores;
  }
  return bundle;
}

/// The deterministic merge-replay loop shared by the resumable path and
/// fleet workers: the head with the earliest claimed time wins (strict
/// `<` ties toward the lowest source index), watermarks advance on the
/// total-line schedule.  `heads`/`total` carry restored offsets in and
/// final positions out; `on_line` (optional) runs after every consumed
/// line — the resumable path hangs its snapshot schedule there.
void ReplayLoop(const LoadedBundle& bundle, StreamingAnalyzer& analyzer,
                const ReplaySchedule& schedule,
                std::uint64_t heads[kNumLogSources], std::uint64_t& total,
                const std::function<Status(std::uint64_t total)>& on_line,
                Status& status) {
  for (;;) {
    int pick = -1;
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      if (heads[s] >= bundle.lines[s].size()) continue;
      if (pick < 0 ||
          bundle.claimed[s][heads[s]] < bundle.claimed[pick][heads[pick]]) {
        pick = static_cast<int>(s);
      }
    }
    if (pick < 0) break;
    const std::string& line = bundle.lines[pick][heads[pick]];
    const TimePoint time = bundle.claimed[pick][heads[pick]];
    ++heads[pick];
    ++total;
    switch (static_cast<LogSource>(pick)) {
      case LogSource::kTorque: analyzer.AddTorqueLine(line); break;
      case LogSource::kAlps: analyzer.AddAlpsLine(line); break;
      case LogSource::kSyslog: analyzer.AddSyslogLine(line); break;
      case LogSource::kHwerr: analyzer.AddHwerrLine(line); break;
    }
    CrashPoint("ingest");
    if (schedule.advance_every != 0 && total % schedule.advance_every == 0) {
      analyzer.Advance(time - schedule.reorder_slack);
    }
    if (on_line) {
      status = on_line(total);
      if (!status.ok()) return;
    }
  }
}

}  // namespace

Result<std::uint64_t> BundlePartitionFingerprint(const StreamInputs& inputs,
                                                 std::uint32_t shard_count) {
  // Delegates to the parsed-bundle cache's in-memory fingerprint so the
  // snapshot headers and the cache entries can never disagree about a
  // bundle's identity.
  const std::string* paths[kNumLogSources] = {
      &inputs.torque_path, &inputs.alps_path, &inputs.syslog_path,
      &inputs.hwerr_path};
  std::vector<std::string> lines[kNumLogSources];
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    LD_ASSIGN_OR_RETURN(lines[s], ReadLines(*paths[s]));
  }
  return FingerprintLines(lines, shard_count);
}

Result<std::uint64_t> ReplayBundle(const LogDiverConfig& config,
                                   const StreamInputs& inputs,
                                   const ReplaySchedule& schedule,
                                   StreamingAnalyzer& analyzer,
                                   BundleLoadStats* load_stats) {
  LD_ASSIGN_OR_RETURN(
      const LoadedBundle bundle,
      LoadBundle(inputs, config, /*want_fingerprint=*/false, load_stats));
  std::uint64_t heads[kNumLogSources] = {0, 0, 0, 0};
  std::uint64_t total = 0;
  Status status;
  ReplayLoop(bundle, analyzer, schedule, heads, total, nullptr, status);
  LD_TRY(status);
  return total;
}

Result<ResumableSummary> RunResumableAnalysis(const Machine& machine,
                                              const LogDiverConfig& config,
                                              const StreamInputs& inputs,
                                              const ResumeOptions& options) {
  LD_ASSIGN_OR_RETURN(const LoadedBundle bundle,
                      LoadBundle(inputs, config, /*want_fingerprint=*/true));
  const std::uint64_t fingerprint = bundle.fingerprint;

  StreamingAnalyzer analyzer(machine, config);
  ResumableSummary out;
  std::uint64_t heads[kNumLogSources] = {0, 0, 0, 0};
  std::uint64_t total = 0;

  const bool snapshots_enabled =
      !options.snapshot_dir.empty() && options.snapshot_interval != 0;
  SnapshotStore store(options.snapshot_dir, options.keep_generations);

  if (!options.snapshot_dir.empty() && options.resume) {
    // Fingerprint-gated: a snapshot of a *different* bundle in this
    // directory is rejected and skipped like a torn one.
    auto loaded = store.LoadLatest(fingerprint);
    if (loaded.ok()) {
      out.snapshots_rejected = loaded->rejected;
      SnapshotReader r(loaded->file.payload);
      const std::uint32_t version = r.U32();
      if (!r.ok()) return r.status();
      if (version != kResumeStateVersion) {
        return FailedPreconditionError(
            "snapshot resume-state version " + std::to_string(version) +
            ", this build speaks " + std::to_string(kResumeStateVersion));
      }
      for (std::uint64_t& head : heads) head = r.U64();
      LD_TRY(analyzer.Restore(r));
      for (std::size_t s = 0; s < kNumLogSources; ++s) {
        if (heads[s] > bundle.lines[s].size()) {
          return FailedPreconditionError(
              "snapshot records an offset past the end of " +
              std::string(LogSourceName(static_cast<LogSource>(s))) +
              " — it belongs to a different bundle");
        }
        total += heads[s];
      }
      out.resumed_generation = loaded->generation;
      out.lines_skipped = total;
      LD_OBS_COUNTER_ADD(obs::names::kResumeLinesSkippedTotal, total);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  LD_OBS_SPAN("resume/replay");
  // Both schedules key off the *total* line count, which the restored
  // offsets reproduce exactly — a resumed pass advances and snapshots
  // at the same lines an uninterrupted one would.
  const ReplaySchedule schedule{options.advance_every, options.reorder_slack};
  Status replay_status;
  ReplayLoop(
      bundle, analyzer, schedule, heads, total,
      [&](std::uint64_t total_now) -> Status {
        if (!snapshots_enabled || total_now % options.snapshot_interval != 0) {
          return Status::Ok();
        }
        SnapshotWriter w;
        w.U32(kResumeStateVersion);
        for (std::uint64_t head : heads) w.U64(head);
        analyzer.Snapshot(w);
        LD_TRY(store.Write(w.bytes(), fingerprint));
        ++out.snapshots_written;
        CrashPoint("snapshot");
        return Status::Ok();
      },
      replay_status);
  LD_TRY(replay_status);

  // Bulk counters once per pass, never per merged line (obs.hpp
  // granularity rule): streamed = lines actually replayed this attempt.
  LD_OBS_COUNTER_ADD(obs::names::kResumeLinesStreamedTotal,
                     total - out.lines_skipped);
  out.summary = analyzer.Finalize();
  out.total_lines = total;
  return out;
}

CrashSupervisor::Outcome CrashSupervisor::Run(
    const std::function<int(int attempt)>& child, const Options& options) {
  Outcome out;
  for (int attempt = 0;; ++attempt) {
    out.attempts = attempt + 1;
    const auto pid = SpawnChild([&child, attempt] { return child(attempt); });
    if (!pid.ok()) {
      out.exit_code = -1;
      return out;
    }
    // A timeout escalates a child that stops making progress (deadlock,
    // injected hang) to SIGKILL, handled as a crash — it cannot hang the
    // supervisor forever.
    const auto exit = WaitChild(
        *pid, options.timeout_ms == 0
                  ? kNoDeadline
                  : ChildClock::now() +
                        std::chrono::milliseconds(options.timeout_ms));
    if (!exit.ok()) {
      out.exit_code = -1;
      return out;
    }
    out.exit_code = exit->code;
    if (exit->hung) ++out.hangs_killed;
    if (!exit->crashed()) return out;
    if (++out.crashes > options.max_restarts) {
      out.exhausted = true;
      return out;
    }
  }
}

}  // namespace ld
