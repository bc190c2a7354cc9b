#include "logdiver/fleet/supervisor.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/child_process.hpp"
#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "common/rng.hpp"
#include "logdiver/streaming.hpp"

namespace ld::fleet {
namespace {

namespace fs = std::filesystem;
using Clock = ChildClock;

/// Backoff before retry r (1-based): min(cap, base << (r-1)) plus jitter
/// uniform in [0, base], from Rng(seed).Fork("shard-i/try-r").
constexpr std::uint64_t kBackoffBaseMs = 5;
constexpr std::uint64_t kBackoffCapMs = 250;

std::string PartialPathFor(const FleetOptions& options, std::uint32_t shard) {
  char name[64];
  std::snprintf(name, sizeof(name), "partial-%04u.ldsnap", shard);
  return options.partial_dir + "/" + name;
}

/// Everything the forked worker does: arm injected faults, replay the
/// inherited bundle shard-filtered, write the partial, optionally
/// corrupt it.  Exit codes: 0 success, 1 internal error, 3 ingest
/// budget tripped (an ordinary failure the supervisor must pass
/// through, not retry).
int RunWorkerProcess(const Machine& machine, LogDiverConfig config,
                     const ReplayInput& input, const FleetOptions& options,
                     std::uint32_t shard, int attempt) {
  const auto fault = options.faults.find(shard);
  if (fault != options.faults.end() &&
      (attempt == 0 || fault->second.persistent)) {
    switch (fault->second.fault) {
      case WorkerFault::kNone: break;
      case WorkerFault::kCrash:
        ArmCrashPoint(fault->second.after_lines);
        break;
      case WorkerFault::kHang:
        ArmHangPoint(fault->second.after_lines);
        break;
      case WorkerFault::kTruncatedPartial:
        ArmTruncatePartial(true);
        break;
    }
  }

  config.shard = ShardSpec{shard, options.shard_count};
  StreamingAnalyzer analyzer(machine, config);
  const auto total = ReplayBundle(input, ReplaySchedule{}, analyzer);
  if (!total.ok()) {
    std::fprintf(stderr, "[fleet] shard %u: %s\n", shard,
                 total.status().message().c_str());
    return 1;
  }
  const StreamingAnalyzer::Summary summary = analyzer.Finalize();

  PartialAggregates partial(config.metrics);
  partial.header.shard_index = shard;
  partial.header.shard_count = options.shard_count;
  partial.header.fingerprint = input.bundle.fingerprint;
  partial.runs_finalized = summary.runs_finalized;
  partial.unterminated_runs = summary.unterminated_runs;
  partial.orphan_terminations = summary.orphan_terminations;
  partial.torque_stats = summary.torque_stats;
  partial.alps_stats = summary.alps_stats;
  partial.syslog_stats = summary.syslog_stats;
  partial.hwerr_stats = summary.hwerr_stats;
  partial.coalesce_stats = summary.coalesce_stats;
  partial.ingest = summary.ingest;
  partial.ingest_status = summary.ingest_status;
  partial.metrics = analyzer.metrics_accumulator();

  const std::string path = PartialPathFor(options, shard);
  const Status written = WritePartialFile(path, partial);
  if (!written.ok()) {
    std::fprintf(stderr, "[fleet] shard %u: %s\n", shard,
                 written.message().c_str());
    return 1;
  }
  if (TruncatePartialArmed()) {
    // Model the torn output atomic rename cannot prevent (bad disk,
    // truncated copy off a shared filesystem): chop the file in half
    // *after* the rename and report success anyway.  Only the reader's
    // CRC stands between this partial and the merge.
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) {
      ::truncate(path.c_str(), st.st_size / 2);
    }
    std::fprintf(stderr, "[fleet] shard %u: injected partial truncation\n",
                 shard);
  }
  if (!summary.ingest_status.ok()) return 3;
  return 0;
}

struct ShardState {
  enum class Phase { kPending, kRunning, kBackoff, kDone, kDropped };
  Phase phase = Phase::kPending;
  pid_t pid = -1;
  Clock::time_point deadline{};
  Clock::time_point retry_at{};
  ShardOutcome out;
  std::optional<PartialAggregates> partial;
};

void KillRunning(std::vector<ShardState>& shards) {
  for (ShardState& s : shards) {
    if (s.phase == ShardState::Phase::kRunning && s.pid > 0) {
      KillChild(s.pid);
      s.pid = -1;
    }
  }
}

}  // namespace

std::string FleetCoverage::Row() const {
  std::string row = "fleet coverage: " + std::to_string(shards_merged) + "/" +
                    std::to_string(shard_count) + " shards merged";
  if (!dropped_shards.empty()) {
    row += " (dropped:";
    for (std::uint32_t shard : dropped_shards) {
      row += " " + std::to_string(shard);
    }
    row += ")";
  }
  return row;
}

Result<FleetSummary> ShardSupervisor::Run(const StreamInputs& inputs,
                                          const FleetOptions& options) const {
  if (options.shard_count == 0) {
    return InvalidArgumentError("fleet: shard_count must be >= 1");
  }
  if (options.max_attempts < 1) {
    return InvalidArgumentError("fleet: max_attempts must be >= 1");
  }
  if (options.partial_dir.empty()) {
    return InvalidArgumentError("fleet: partial_dir is required");
  }
  std::error_code ec;
  fs::create_directories(options.partial_dir, ec);
  if (ec) {
    return InternalError("fleet: cannot create " + options.partial_dir +
                         ": " + ec.message());
  }
  // The one bundle load of the fleet: workers inherit the mapped lines
  // and claims through fork and read nothing themselves.  The loader's
  // pool is gone by the time it returns, so no thread is forked.
  LD_ASSIGN_OR_RETURN(const ReplayInput input,
                      LoadReplayInput(config_, inputs));
  const std::uint64_t fingerprint = input.bundle.fingerprint;
  const Rng jitter_root(options.seed);

  std::vector<ShardState> shards(options.shard_count);
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    shards[i].out.shard_index = i;
  }

  // One failure ends the fleet immediately: a worker that exits with an
  // *ordinary* (non-crash) failure carries an error retries cannot fix.
  Status abort_status;
  std::uint32_t dropped_count = 0;

  // Retries exhausted for shard i: drop it and decide whether the fleet
  // can continue.  kFailFast aborts on the first drop; the degrade
  // policy tolerates up to failure_budget drops.
  auto drop_shard = [&](ShardState& s) {
    s.phase = ShardState::Phase::kDropped;
    s.out.dropped = true;
    ++dropped_count;
    LD_OBS_COUNTER_ADD(obs::names::kFleetShardsDroppedTotal, 1);
    if (options.policy == DegradationPolicy::kFailFast) {
      abort_status = FailedPreconditionError(
          "fleet: shard " + std::to_string(s.out.shard_index) +
          " exhausted its " + std::to_string(options.max_attempts) +
          " attempts (fail-fast policy)");
    } else if (dropped_count > options.failure_budget) {
      abort_status = OutOfRangeError(
          "fleet: failure budget exhausted (" +
          std::to_string(dropped_count) + " shards dropped, budget " +
          std::to_string(options.failure_budget) + ")");
    }
  };

  // A failed attempt for shard i: retry with deterministic backoff, or
  // drop when attempts are spent.
  auto retry_or_drop = [&](ShardState& s) {
    if (s.out.attempts >= options.max_attempts) {
      drop_shard(s);
      return;
    }
    const std::uint64_t retry = static_cast<std::uint64_t>(s.out.attempts);
    const std::uint64_t base =
        std::min(kBackoffCapMs,
                 kBackoffBaseMs << std::min<std::uint64_t>(
                     retry > 0 ? retry - 1 : 0, 20));
    Rng jitter = jitter_root.Fork(
        "shard-" + std::to_string(s.out.shard_index) + "/try-" +
        std::to_string(retry));
    const std::uint64_t delay =
        base + jitter.UniformInt(kBackoffBaseMs + 1);
    s.out.backoff_ms.push_back(delay);
    s.retry_at = Clock::now() + std::chrono::milliseconds(delay);
    s.phase = ShardState::Phase::kBackoff;
    LD_OBS_COUNTER_ADD(obs::names::kFleetRetriesTotal, 1);
  };

  // Exit 0 only earns a merge slot after the partial validates: CRC
  // and framing (ReadPartialFile), then fingerprint and shard identity
  // — a torn, foreign or misnumbered partial is a failed attempt.
  auto validate_partial = [&](ShardState& s) -> bool {
    auto partial = ReadPartialFile(PartialPathFor(options, s.out.shard_index),
                                   config_.metrics);
    if (partial.ok() && partial->header.fingerprint != fingerprint) {
      partial = ParseError("partial fingerprints a different bundle");
    }
    if (partial.ok() && (partial->header.shard_index != s.out.shard_index ||
                         partial->header.shard_count !=
                             options.shard_count)) {
      partial = ParseError("partial claims a different shard identity");
    }
    if (!partial.ok()) {
      ++s.out.partials_rejected;
      LD_OBS_COUNTER_ADD(obs::names::kFleetPartialsRejectedTotal, 1);
      std::fprintf(stderr, "[fleet] shard %u: rejecting partial: %s\n",
                   s.out.shard_index, partial.status().message().c_str());
      return false;
    }
    s.partial = std::move(*partial);
    return true;
  };

  // Launch phase: start every pending shard and every retry whose
  // backoff has passed, in shard-index order.
  auto launch_ready = [&] {
    const Clock::time_point now = Clock::now();
    for (ShardState& s : shards) {
      const bool launchable =
          s.phase == ShardState::Phase::kPending ||
          (s.phase == ShardState::Phase::kBackoff && now >= s.retry_at);
      if (!launchable) continue;
      const int attempt = s.out.attempts++;
      const auto pid = SpawnChild([&, attempt, shard = s.out.shard_index] {
        return RunWorkerProcess(machine_, config_, input, options, shard,
                                attempt);
      });
      if (!pid.ok()) {
        // Abort through abort_status (not an early return) so the
        // KillRunning path below reaps every already-launched worker —
        // an error exit must never leave zombies behind.
        abort_status = InternalError("fleet: shard " +
                                     std::to_string(s.out.shard_index) +
                                     ": " + pid.status().message());
        return;
      }
      s.pid = *pid;
      s.deadline =
          Clock::now() + std::chrono::milliseconds(options.shard_timeout_ms);
      s.phase = ShardState::Phase::kRunning;
      LD_OBS_COUNTER_ADD(obs::names::kFleetWorkersSpawnedTotal, 1);
    }
  };

  {
    LD_OBS_SPAN("fleet/spawn");
    launch_ready();
  }
  {
    // Retries relaunch inside this span, after their backoff.
    LD_OBS_SPAN("fleet/wait");
    while (abort_status.ok()) {
      bool all_resolved = true;
      // Poll phase: reap exits, escalate deadline blowers to SIGKILL.
      for (ShardState& s : shards) {
        if (s.phase != ShardState::Phase::kDone &&
            s.phase != ShardState::Phase::kDropped) {
          all_resolved = false;
        }
        if (s.phase != ShardState::Phase::kRunning) continue;
        const auto exit = PollChild(s.pid, s.deadline);
        if (!exit.ok()) {
          abort_status = InternalError("fleet: shard " +
                                       std::to_string(s.out.shard_index) +
                                       ": " + exit.status().message());
          break;
        }
        if (!exit->has_value()) continue;
        s.pid = -1;
        const ChildExit& ended = **exit;
        if (ended.hung) {
          ++s.out.hangs_killed;
          LD_OBS_COUNTER_ADD(obs::names::kFleetWorkerHangsKilledTotal, 1);
        }
        if (ended.crashed()) {
          ++s.out.crashes;
          LD_OBS_COUNTER_ADD(obs::names::kFleetWorkerCrashesTotal, 1);
          retry_or_drop(s);
        } else if (ended.code != 0) {
          // Ordinary failure: the child's error (ingest budget, bad
          // input) passes through; retrying cannot fix it.
          abort_status = FailedPreconditionError(
              "fleet: shard " + std::to_string(s.out.shard_index) +
              " failed ordinarily (exit " + std::to_string(ended.code) +
              "); see its stderr");
          break;
        } else if (validate_partial(s)) {
          s.phase = ShardState::Phase::kDone;
          s.out.completed = true;
        } else {
          retry_or_drop(s);
        }
        if (!abort_status.ok()) break;
      }

      if (!abort_status.ok() || all_resolved) break;
      ::usleep(2000);
      launch_ready();
    }
  }

  if (!abort_status.ok()) {
    KillRunning(shards);
    return abort_status;
  }

  // Merge phase: ascending shard index (the documented canonical
  // order; the algebra is order-free, the bytes we compare are not
  // allowed to depend on that).
  LD_OBS_SPAN("fleet/merge");
  const std::uint64_t merge_start_ns = LD_OBS_NOW_NS();
  FleetSummary summary;
  summary.bundle_fingerprint = fingerprint;
  summary.coverage.shard_count = options.shard_count;
  MetricsAccumulator merged(config_.metrics);
  const ShardState* first_survivor = nullptr;
  for (const ShardState& s : shards) {
    summary.shards.push_back(s.out);
    if (s.phase != ShardState::Phase::kDone) {
      summary.coverage.dropped_shards.push_back(s.out.shard_index);
      continue;
    }
    ++summary.coverage.shards_merged;
    merged.MergeFrom(s.partial->metrics);
    if (first_survivor == nullptr) first_survivor = &s;
  }
  if (first_survivor == nullptr) {
    return InternalError("fleet: no shard survived; nothing to merge");
  }
  // Bundle-wide counters are replayed identically by every worker; the
  // lowest-index survivor speaks for the fleet.
  const PartialAggregates& base = *first_survivor->partial;
  summary.runs_finalized = base.runs_finalized;
  summary.unterminated_runs = base.unterminated_runs;
  summary.orphan_terminations = base.orphan_terminations;
  summary.torque_stats = base.torque_stats;
  summary.alps_stats = base.alps_stats;
  summary.syslog_stats = base.syslog_stats;
  summary.hwerr_stats = base.hwerr_stats;
  summary.coalesce_stats = base.coalesce_stats;
  summary.ingest_status = base.ingest_status;
  summary.report = merged.Report();
  summary.report.ingest = base.ingest;
  if (merge_start_ns != 0) {
    LD_OBS_HIST_RECORD(obs::names::kFleetMergeMicros,
                       (LD_OBS_NOW_NS() - merge_start_ns) / 1000);
  }
  return summary;
}

}  // namespace ld::fleet
