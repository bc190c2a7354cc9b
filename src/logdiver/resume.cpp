#include "logdiver/resume.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/child_process.hpp"
#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "common/parallel.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

/// The four line columns of `views`, in LogSource order.
void SourceLines(const LogSetView& views,
                 const std::vector<std::string_view>* (&out)[kNumLogSources]) {
  out[0] = &views.torque;
  out[1] = &views.alps;
  out[2] = &views.syslog;
  out[3] = &views.hwerr;
}

/// The deterministic merge-replay loop shared by the resumable path and
/// fleet workers: the head with the earliest claimed time wins (strict
/// `<` ties toward the lowest source index), watermarks advance on the
/// total-line schedule.  `heads`/`total` carry restored offsets in and
/// final positions out; `on_line` (optional) runs after every consumed
/// line — the resumable path hangs its snapshot schedule there.
void ReplayLoop(const ReplayInput& input, StreamingAnalyzer& analyzer,
                const ReplaySchedule& schedule,
                std::uint64_t heads[kNumLogSources], std::uint64_t& total,
                const std::function<Status(std::uint64_t total)>& on_line,
                Status& status) {
  const auto& claimed = input.keys.claimed;
  const std::vector<std::string_view>* lines[kNumLogSources];
  SourceLines(input.bundle.views, lines);
  for (;;) {
    int pick = -1;
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      if (heads[s] >= lines[s]->size()) continue;
      if (pick < 0 || claimed[s][heads[s]] < claimed[pick][heads[pick]]) {
        pick = static_cast<int>(s);
      }
    }
    if (pick < 0) break;
    const std::uint64_t index = heads[pick]++;
    const std::string_view line = (*lines[pick])[index];
    const TimePoint time = claimed[pick][index];
    ++total;
    switch (static_cast<LogSource>(pick)) {
      case LogSource::kTorque: analyzer.AddTorqueLine(line); break;
      case LogSource::kAlps:
        analyzer.AddAlpsLine(line, input.keys.alps[index], time);
        break;
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

bool ClaimedTracker::Stamp(LogSource source, std::string_view line,
                           AlpsKey* alps_key) {
  TimePoint& carry = carry_[static_cast<std::size_t>(source)];
  std::optional<TimePoint> stamp;
  switch (source) {
    case LogSource::kTorque: {
      auto rec = torque_.ParseLine(line);
      if (rec.ok() && rec->has_value()) stamp = (*rec)->time;
      break;
    }
    case LogSource::kAlps: {
      auto rec = alps_.ParseLine(line);
      const bool record = rec.ok() && rec->has_value();
      if (record) stamp = (*rec)->time;
      if (alps_key != nullptr) *alps_key = record ? AlpsKey::Of(**rec) : AlpsKey();
      break;
    }
    case LogSource::kSyslog: {
      auto t = SyslogParser::ClaimTime(line, carry, syslog_base_year_);
      if (t.ok()) stamp = *t;
      break;
    }
    case LogSource::kHwerr: {
      auto rec = hwerr_.ParseLine(line);
      if (rec.ok() && rec->has_value()) stamp = (*rec)->time;
      break;
    }
  }
  if (!stamp) return false;
  carry = *stamp;
  return true;
}

void ClaimedTracker::SetCarry(LogSource source, TimePoint claimed) {
  carry_[static_cast<std::size_t>(source)] = claimed;
}

Result<ReplayInput> LoadReplayInput(const LogDiverConfig& config,
                                    const StreamInputs& inputs) {
  const int threads = ResolveThreadCount(config.threads);
  std::optional<ThreadPool> pool_storage;
  if (threads > 1) pool_storage.emplace(threads);
  ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;

  ReplayInput input;
  LD_ASSIGN_OR_RETURN(input.bundle, OpenBundle(inputs, pool));
  const std::vector<std::string_view>* lines[kNumLogSources];
  SourceLines(input.bundle.views, lines);
  const std::uint64_t fingerprint = input.bundle.fingerprint;
  const int base_year = config.syslog_base_year;

  // Claims cache: the key pass is pure overhead on a bundle this
  // process family has already seen.  Keyed by the bundle fingerprint
  // (keys are partition-independent) and the base year.
  std::optional<cache::BundleCache> bundle_cache;
  if (!config.bundle_cache_dir.empty()) {
    bundle_cache.emplace(config.bundle_cache_dir,
                         config.bundle_cache_max_bytes);
    std::array<std::size_t, kNumLogSources> line_counts{};
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      line_counts[s] = lines[s]->size();
    }
    auto keys = bundle_cache->LoadClaims(fingerprint, base_year, line_counts);
    if (keys.ok()) {
      input.keys = std::move(*keys);
      return input;
    }
    if (keys.status().code() != StatusCode::kNotFound) {
      // Rejected entry (torn/stale/foreign): fall back loudly, never
      // silently — the key pass below restores correctness.
      std::fprintf(stderr, "logdiver: %s\n", keys.status().message().c_str());
    }
  }
  {
    LD_OBS_SPAN("claims");
    const std::size_t chunk_lines = config.parse_chunk_lines != 0
                                        ? config.parse_chunk_lines
                                        : kDefaultParseChunkLines;
    cache::ReplayKeys& keys = input.keys;
    keys.alps.resize(lines[static_cast<std::size_t>(LogSource::kAlps)]->size());
    std::vector<IndexRange> chunks[kNumLogSources];
    // Per chunk: its first line with a stamp of its own (the chunk's end
    // when it has none).  The lines before it take the previous chunk's
    // last claim in the fix-up below.
    std::vector<std::size_t> first_stamped[kNumLogSources];
    TaskGroup group(pool);
    // Syslog first: it is one task, so it should start before the chunks.
    for (const LogSource source : {LogSource::kSyslog, LogSource::kTorque,
                                   LogSource::kAlps, LogSource::kHwerr}) {
      const auto s = static_cast<std::size_t>(source);
      const std::size_t n = lines[s]->size();
      keys.claimed[s].resize(n);
      chunks[s] = source == LogSource::kSyslog
                      ? std::vector<IndexRange>{IndexRange{0, n}}
                      : ChunkRanges(n, chunk_lines);
      first_stamped[s].resize(chunks[s].size());
      for (std::size_t c = 0; c < chunks[s].size(); ++c) {
        group.Run([&keys, &lines, &chunks, &first_stamped, source, s, c,
                   base_year] {
          LD_OBS_SPAN("claims/chunk");
          const IndexRange range = chunks[s][c];
          ClaimedTracker tracker(base_year);
          std::vector<TimePoint>& column = keys.claimed[s];
          std::size_t first = range.end;
          for (std::size_t i = range.begin; i < range.end; ++i) {
            AlpsKey* key =
                source == LogSource::kAlps ? &keys.alps[i] : nullptr;
            if (tracker.Stamp(source, (*lines[s])[i], key) && first == range.end) {
              first = i;
            }
            column[i] = tracker.carry(source);
          }
          first_stamped[s][c] = first;
        });
      }
    }
    group.Wait();
    // In chunk order, so a chunk without a stamp passes the carry on.
    // The first chunk keeps the serial pass's empty carry.
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      std::vector<TimePoint>& column = keys.claimed[s];
      for (std::size_t c = 1; c < chunks[s].size(); ++c) {
        const std::size_t begin = chunks[s][c].begin;
        for (std::size_t i = begin; i < first_stamped[s][c]; ++i) {
          column[i] = column[begin - 1];
        }
      }
    }
  }
  if (bundle_cache) {
    const Status stored =
        bundle_cache->StoreClaims(fingerprint, base_year, input.keys);
    if (!stored.ok()) {
      std::fprintf(stderr, "logdiver: %s\n", stored.message().c_str());
    }
  }
  return input;
}

Result<std::uint64_t> ReplayBundle(const ReplayInput& input,
                                   const ReplaySchedule& schedule,
                                   StreamingAnalyzer& analyzer) {
  std::uint64_t heads[kNumLogSources] = {0, 0, 0, 0};
  std::uint64_t total = 0;
  Status status;
  ReplayLoop(input, analyzer, schedule, heads, total, nullptr, status);
  LD_TRY(status);
  return total;
}

Result<std::uint64_t> ReplayBundle(const LogDiverConfig& config,
                                   const StreamInputs& inputs,
                                   const ReplaySchedule& schedule,
                                   StreamingAnalyzer& analyzer) {
  LD_ASSIGN_OR_RETURN(const ReplayInput input,
                      LoadReplayInput(config, inputs));
  return ReplayBundle(input, schedule, analyzer);
}

Result<ResumableSummary> RunResumableAnalysis(const Machine& machine,
                                              const LogDiverConfig& config,
                                              const StreamInputs& inputs,
                                              const ResumeOptions& options) {
  LD_ASSIGN_OR_RETURN(const ReplayInput input,
                      LoadReplayInput(config, inputs));
  const std::uint64_t fingerprint = input.bundle.fingerprint;

  StreamingAnalyzer analyzer(machine, config);
  ResumableSummary out;
  std::uint64_t heads[kNumLogSources] = {0, 0, 0, 0};
  std::uint64_t total = 0;

  const bool snapshots_enabled =
      !options.snapshot_dir.empty() && options.snapshot_interval != 0;
  SnapshotStore store(options.snapshot_dir);

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
      const std::vector<std::string_view>* lines[kNumLogSources];
      SourceLines(input.bundle.views, lines);
      for (std::size_t s = 0; s < kNumLogSources; ++s) {
        if (heads[s] > lines[s]->size()) {
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
  Status replay_status;
  ReplayLoop(
      input, analyzer, ReplaySchedule{}, heads, total,
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
