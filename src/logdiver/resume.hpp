// Crash-tolerant streaming analysis: the recovery half of the
// checkpoint-recovery pattern (snapshot.hpp is the checkpoint half).
//
// RunResumableAnalysis streams an on-disk bundle through a
// StreamingAnalyzer exactly as a live shipper would — four file tails
// merged by claimed head time — writing a snapshot every N lines.  On
// startup it loads the newest *valid* snapshot (torn or corrupt files
// are rejected by CRC and the loader falls back a generation), restores
// the analyzer, and resumes reading each file at the recorded offset,
// so every line is applied exactly once.  Because the merge order, the
// watermark schedule and the serialization are all deterministic, an
// interrupted-and-resumed pass produces a *bit-identical* MetricsReport
// to an uninterrupted one — bench/crash_campaign asserts this across a
// kill-point × snapshot-interval sweep.
//
// CrashSupervisor is the process-level loop over common/child_process:
// it runs an analysis attempt in a forked child, distinguishes a crash
// (signal, or an exit code >= 128 such as the injected kCrashExitCode)
// from an ordinary failure, and restarts crashed attempts up to a
// budget.  Ordinary
// failures pass through — a tripped ingest error budget must not be
// retried into an infinite loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.hpp"
#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/streaming.hpp"

namespace ld {

/// Resume payload version (docs/FORMATS.md "snapshot — analyzer
/// checkpoint files").  Version 2: syslog claims follow the year rule,
/// so the merge order of a year-spanning bundle changed and a v1
/// snapshot's offsets would resume a different order.
inline constexpr std::uint32_t kResumeStateVersion = 2;

/// The one deterministic advance schedule of every replay path
/// (single-process resume and fleet workers).  Watermark advances key
/// off the total merged line count, so two replays of the same bundle
/// make identical Advance() calls — which is what keeps a fleet
/// worker's classification context bit-identical to the serial
/// analyzer's.
struct ReplaySchedule {
  /// Lines between watermark advances.
  std::uint64_t advance_every = 500;
  /// Reorder slack subtracted from the claimed head time at each
  /// advance.
  Duration reorder_slack = Duration::Minutes(5);
};

/// Per-line claimed times: the timestamp the replay merge orders lines
/// by.  A line's claim is the last parseable timestamp of its source
/// (carried over lines that do not parse — a real shipper cannot drop
/// what it cannot read); syslog stamps take their year from the
/// previous claim by SyslogParser::ClaimTime's rollover rule.  The
/// replay loader and the service tenant both claim through this class;
/// the carry is its only state, so a tenant snapshot that stores the
/// carries restores the tracker exactly.
class ClaimedTracker {
 public:
  explicit ClaimedTracker(int syslog_base_year)
      : syslog_base_year_(syslog_base_year) {}

  /// Claimed time for `line`, updating the per-source carry.
  TimePoint Claim(LogSource source, std::string_view line) {
    Stamp(source, line);
    return carry(source);
  }

  /// Updates the carry from `line`; true when the line carried a stamp
  /// of its own, false when it keeps the carry.  For an ALPS line,
  /// `alps_key` (when given) receives its AlpsKey from the same parse.
  bool Stamp(LogSource source, std::string_view line,
             AlpsKey* alps_key = nullptr);

  TimePoint carry(LogSource source) const {
    return carry_[static_cast<std::size_t>(source)];
  }

  /// Re-seeds one source's carry (recovery: the snapshot and the
  /// replayed journal records carry the claims, so the parsers never
  /// re-run over history).
  void SetCarry(LogSource source, TimePoint claimed);

 private:
  int syslog_base_year_;
  TorqueParser torque_;
  AlpsParser alps_;
  HwerrParser hwerr_;
  TimePoint carry_[kNumLogSources] = {};
};

/// A bundle ready for the deterministic merge: its mapped lines (with
/// their fingerprint), one claimed time per line and one AlpsKey per
/// ALPS line.
struct ReplayInput {
  MappedBundle bundle;
  cache::ReplayKeys keys;
};

/// Opens `inputs` (OpenBundle) and keys every line in one pass on a pool
/// sized by `config.threads` that is gone when this returns — so a
/// caller may fork right after.  Torque, alps and hwerr are claimed in
/// chunks of `config.parse_chunk_lines`; a chunk's lines before its
/// first parsable one take the previous chunk's last claim in a serial
/// fix-up, so the columns equal one ClaimedTracker pass line for line.
/// Syslog is one task: its year rule chains every line.  With a bundle
/// cache directory the keys come from (or go to) its claims entry; a
/// rejected entry is reported on stderr and the keys are recomputed.
Result<ReplayInput> LoadReplayInput(const LogDiverConfig& config,
                                    const StreamInputs& inputs);

struct ResumeOptions {
  /// Snapshot directory; empty disables both snapshots and resume.
  std::string snapshot_dir;
  /// Lines between snapshots; 0 disables snapshotting.
  std::uint64_t snapshot_interval = 20000;
  /// Load the newest valid snapshot on startup; false starts fresh
  /// (existing snapshots are left alone — Clear() is the caller's call).
  bool resume = true;
};

struct ResumableSummary {
  StreamingAnalyzer::Summary summary;
  /// Lines applied by the whole logical pass (replayed + fresh).
  std::uint64_t total_lines = 0;
  /// Snapshots written by *this* process.
  std::uint64_t snapshots_written = 0;
  /// Generation restored from; 0 when the pass started fresh.
  std::uint64_t resumed_generation = 0;
  /// Torn/corrupt newer generations skipped while loading.
  std::uint64_t snapshots_rejected = 0;
  /// Lines skipped on resume because the snapshot already covered them.
  std::uint64_t lines_skipped = 0;
};

/// Streams `inputs` through a fresh analyzer (resuming from the newest
/// valid snapshot when options allow), finalizes, and returns the
/// summary.  Errors on unreadable inputs or an unusable snapshot
/// payload (version/geometry mismatch — *corruption* is handled by
/// falling back, a mismatch means the operator pointed the tool at the
/// wrong directory).
Result<ResumableSummary> RunResumableAnalysis(const Machine& machine,
                                              const LogDiverConfig& config,
                                              const StreamInputs& inputs,
                                              const ResumeOptions& options);

/// Streams a loaded bundle through `analyzer` with the merge order and
/// advance schedule of RunResumableAnalysis, but no snapshotting or
/// resume — the replay core a fleet worker runs.  The caller owns the
/// analyzer (and calls Finalize()).  Returns total merged lines.
Result<std::uint64_t> ReplayBundle(const ReplayInput& input,
                                   const ReplaySchedule& schedule,
                                   StreamingAnalyzer& analyzer);

/// LoadReplayInput + ReplayBundle; `config` supplies the syslog base
/// year and the bundle cache directory.
Result<std::uint64_t> ReplayBundle(const LogDiverConfig& config,
                                   const StreamInputs& inputs,
                                   const ReplaySchedule& schedule,
                                   StreamingAnalyzer& analyzer);

/// Process-level restart loop around a crashing analysis attempt.
class CrashSupervisor {
 public:
  struct Options {
    /// Crashed attempts restarted before giving up.
    int max_restarts = 10;
    /// Wall-clock budget per attempt, in milliseconds; a child still
    /// running past it is SIGKILLed and treated as a crash (counted in
    /// Outcome::hangs_killed and retried like any other).  0 keeps the
    /// old blocking wait: no timeout, a hung child hangs the
    /// supervisor.
    std::uint64_t timeout_ms = 0;
  };

  struct Outcome {
    /// Exit code of the last attempt (the successful one, the ordinary
    /// failure passed through, or the final crash when exhausted).
    int exit_code = 0;
    int attempts = 0;
    int crashes = 0;
    /// Attempts that blew the wall-clock budget and were SIGKILLed
    /// (each is also counted in `crashes`).
    int hangs_killed = 0;
    /// True when the restart budget ran out on a still-crashing child.
    bool exhausted = false;
  };

  /// Runs `child(attempt)` in a forked process until it exits without
  /// crashing or the restart budget is spent.  `attempt` starts at 0
  /// and increments per run — campaign code uses it to arm a crash
  /// point on the first attempt only.  A crash is a signal death, an
  /// exit code >= 128, or a timeout escalation; anything else passes
  /// through unretried.
  static Outcome Run(const std::function<int(int attempt)>& child,
                     const Options& options);
  static Outcome Run(const std::function<int(int attempt)>& child) {
    return Run(child, Options());
  }
};

}  // namespace ld
