#include "common/child_process.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>

namespace ld {
namespace {

using std::chrono::milliseconds;

ChildExit RunToExit(const std::function<int()>& fn,
                    ChildClock::time_point deadline = kNoDeadline) {
  auto pid = SpawnChild(fn);
  EXPECT_TRUE(pid.ok()) << pid.status().ToString();
  auto exit = WaitChild(*pid, deadline);
  EXPECT_TRUE(exit.ok()) << exit.status().ToString();
  return *exit;
}

TEST(ChildProcessTest, ClassifiesExits) {
  const ChildExit clean = RunToExit([] { return 0; });
  EXPECT_EQ(clean.code, 0);
  EXPECT_FALSE(clean.crashed());

  // An ordinary failure passes through: retries cannot fix it.
  const ChildExit failed = RunToExit([] { return 3; });
  EXPECT_EQ(failed.code, 3);
  EXPECT_FALSE(failed.crashed());

  // Exit codes >= 128 are crashes (injected crash points exit so).
  const ChildExit injected = RunToExit([] { return 134; });
  EXPECT_EQ(injected.code, 134);
  EXPECT_FALSE(injected.signaled);
  EXPECT_TRUE(injected.crashed());

  const ChildExit killed = RunToExit([] {
    ::raise(SIGKILL);
    return 0;
  });
  EXPECT_TRUE(killed.signaled);
  EXPECT_EQ(killed.code, 128 + SIGKILL);
  EXPECT_TRUE(killed.crashed());
}

TEST(ChildProcessTest, HungChildIsKilledAtItsDeadline) {
  const auto start = ChildClock::now();
  const ChildExit hung = RunToExit(
      [] {
        for (;;) ::pause();
        return 0;
      },
      start + milliseconds(50));
  EXPECT_TRUE(hung.hung);
  EXPECT_TRUE(hung.crashed());
  EXPECT_EQ(hung.code, 128 + SIGKILL);
  EXPECT_LT(ChildClock::now() - start, milliseconds(5000));
}

TEST(ChildProcessTest, PollIsNonBlockingUntilExit) {
  int read_write[2];
  ASSERT_EQ(::pipe(read_write), 0);
  // The child exits once the parent closes the pipe's write end.
  auto pid = SpawnChild([&read_write] {
    ::close(read_write[1]);
    char byte;
    return ::read(read_write[0], &byte, 1) == 0 ? 7 : 1;
  });
  ASSERT_TRUE(pid.ok());
  ::close(read_write[0]);
  auto running = PollChild(*pid, kNoDeadline);
  ASSERT_TRUE(running.ok());
  EXPECT_FALSE(running->has_value());
  ::close(read_write[1]);
  auto exit = WaitChild(*pid);
  ASSERT_TRUE(exit.ok());
  EXPECT_EQ(exit->code, 7);
  // Reaped: a second poll is an error, not a hang.
  EXPECT_FALSE(PollChild(*pid, kNoDeadline).ok());
}

TEST(ChildProcessTest, KillChildReapsARunningChild) {
  auto pid = SpawnChild([] {
    for (;;) ::pause();
    return 0;
  });
  ASSERT_TRUE(pid.ok());
  KillChild(*pid);
  EXPECT_FALSE(PollChild(*pid, kNoDeadline).ok());  // already reaped
}

}  // namespace
}  // namespace ld
