#include "common/child_process.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace ld {
namespace {

ChildExit Classify(int status) {
  ChildExit exit;
  if (WIFSIGNALED(status)) {
    exit.signaled = true;
    exit.code = 128 + WTERMSIG(status);
  } else {
    exit.code = WEXITSTATUS(status);
  }
  return exit;
}

Status WaitpidError(pid_t pid) {
  return InternalError("waitpid(" + std::to_string(pid) +
                       ") failed: " + std::strerror(errno));
}

}  // namespace

Result<pid_t> SpawnChild(const std::function<int()>& fn) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    return InternalError(std::string("fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    const int rc = fn();
    std::fflush(nullptr);
    std::_Exit(rc);
  }
  return pid;
}

Result<std::optional<ChildExit>> PollChild(pid_t pid,
                                           ChildClock::time_point deadline) {
  int status = 0;
  const pid_t r = ::waitpid(pid, &status, WNOHANG);
  if (r < 0) return WaitpidError(pid);
  if (r == pid) return std::optional<ChildExit>(Classify(status));
  if (ChildClock::now() < deadline) return std::optional<ChildExit>();
  // Hung (deadlock, injected hang): kill, reap, report.
  ::kill(pid, SIGKILL);
  if (::waitpid(pid, &status, 0) < 0) return WaitpidError(pid);
  ChildExit exit = Classify(status);
  exit.hung = true;
  return std::optional<ChildExit>(exit);
}

Result<ChildExit> WaitChild(pid_t pid, ChildClock::time_point deadline) {
  if (deadline == kNoDeadline) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) return WaitpidError(pid);
    return Classify(status);
  }
  for (;;) {
    LD_ASSIGN_OR_RETURN(const std::optional<ChildExit> exit,
                        PollChild(pid, deadline));
    if (exit.has_value()) return *exit;
    ::usleep(2000);
  }
}

void KillChild(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

}  // namespace ld
