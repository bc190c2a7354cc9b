// The one child-process primitive: spawn a function in a forked child,
// reap it against a wall-clock deadline, and classify how it ended.
// CrashSupervisor (logdiver/resume.hpp) and the fleet's ShardSupervisor
// are loops over these three calls; no other code forks or reaps.
//
// Classification is the detection half of the supervisors' recovery:
// a *crash* (signal death, an exit code >= 128 such as an injected
// kCrashExitCode, or a hang SIGKILLed at its deadline) is worth a
// retry; any other non-zero exit is an ordinary failure whose error
// retries cannot fix.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <optional>

#include "common/status.hpp"

namespace ld {

using ChildClock = std::chrono::steady_clock;
/// No deadline: a poll never kills, a wait blocks until exit.
inline constexpr ChildClock::time_point kNoDeadline =
    ChildClock::time_point::max();

/// How a reaped child ended.
struct ChildExit {
  /// The exit status, or 128 + the signal number for a signal death
  /// (the shell convention, so a SIGKILLed hang reads 137).
  int code = 0;
  bool signaled = false;
  /// Still running at its deadline: SIGKILLed and reaped.
  bool hung = false;
  bool crashed() const { return signaled || hung || code >= 128; }
};

/// Flushes stdio (so the child does not replay the parent's buffered
/// output), forks, and runs `fn` in the child, which flushes again and
/// `_Exit`s with fn's return value.  Returns the child's pid, or an
/// error when fork fails.
Result<pid_t> SpawnChild(const std::function<int()>& fn);

/// Non-blocking reap: nullopt while the child runs and `deadline` is in
/// the future; a child still running at the deadline is SIGKILLed and
/// reaped (`hung`).  An error when waitpid fails.
Result<std::optional<ChildExit>> PollChild(pid_t pid,
                                           ChildClock::time_point deadline);

/// Blocks until the child exits, or until `deadline` (then SIGKILL,
/// reap, `hung`).
Result<ChildExit> WaitChild(pid_t pid,
                            ChildClock::time_point deadline = kNoDeadline);

/// SIGKILLs and reaps a child the caller abandons (best effort: the
/// caller is already on an error path).
void KillChild(pid_t pid);

}  // namespace ld
