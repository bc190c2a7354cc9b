// The service layers of the traced run: an open-loop INGEST ladder
// against a logdiverd child over a unix socket.  One generator thread
// drives three ingest connections (one per tenant) and one query
// connection with non-blocking sockets; each line is due at a fixed
// time whatever the daemon does, and its latency runs from that due
// time to its reply.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>

#include "bench.hpp"
#include "common/sockio.hpp"
#include "logdiver/service/client.hpp"
#include "logdiver/service/daemon.hpp"
#include "logdiver/service/protocol.hpp"
#include "logdiver/streaming.hpp"

namespace perfbench {
namespace {

inline constexpr double kQueryPeriodMs = 50;
inline constexpr double kReplyTimeoutMs = 10000;
// Per-tenant ingest queue of every logdiverd child.  A tenant's apply
// worker fsyncs its journal and snapshot in line, so a busy disk stalls
// it for hundreds of ms; the default 1024 lines hold 75 ms of one
// tenant's arrivals at 40k lines/s, and a stall any longer refuses
// lines (BUSY).  This depth holds a few seconds at every ladder rate, so
// the ladder measures the service rather than the host's disk; the
// stall still shows as apply lag and queue depth (svc.*).
inline constexpr const char* kQueueCap = "65536";

// --- the daemon child -------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  std::string address;
  std::string data_dir;
};

bool Ping(const std::string& address) {
  auto client = ld::service::ServiceClient::Connect(address, 1000);
  if (!client.ok()) return false;
  auto reply = (*client)->Send("PING");
  return reply.ok() && ld::service::ReplyVerdict(*reply) == "OK";
}

/// Waits for a child, escalating to SIGKILL after `grace_ms`.
void Reap(pid_t pid, int grace_ms) {
  for (int waited = 0;; ++waited) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) return;
    if (waited == grace_ms) ::kill(pid, SIGKILL);
    ::usleep(1000);
  }
}

/// fork+exec of logdiverd; returns once its socket answers PING.
std::optional<Daemon> SpawnDaemon(const std::string& exe, const std::string& tag) {
  Daemon d;
  d.data_dir = "svc-" + tag;
  d.address = "unix:svc-" + tag + ".sock";
  std::filesystem::remove_all(d.data_dir);
  const std::string log = "svc-" + tag + ".log";
  d.pid = ::fork();
  if (d.pid < 0) return std::nullopt;
  if (d.pid == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    const char* argv[] = {exe.c_str(), "--snapshot-dir", d.data_dir.c_str(),
                          "--listen", d.address.c_str(), "--max-tenants", "64",
                          "--queue-cap", kQueueCap, nullptr};
    ::execv(exe.c_str(), const_cast<char* const*>(argv));
    std::_Exit(127);
  }
  for (int attempt = 0; attempt < 100000; ++attempt) {
    if (Ping(d.address)) return d;
    int status = 0;
    if (::waitpid(d.pid, &status, WNOHANG) == d.pid) return std::nullopt;
    ::usleep(100);
  }
  ::kill(d.pid, SIGKILL);
  Reap(d.pid, 0);
  return std::nullopt;
}

void StopDaemon(const Daemon& d) {
  ::kill(d.pid, SIGTERM);
  Reap(d.pid, 20000);
  std::filesystem::remove_all(d.data_dir);
}

// --- non-blocking line connections ----------------------------------

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<double> pending;  // due (ingest) or send (query) times, ms

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  bool Open(const std::string& address) {
    auto fd_or = ld::ConnectTo(address);
    if (!fd_or.ok()) return false;
    fd = *fd_or;
    return ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) == 0;
  }
  void Queue(const std::string& line, double stamp) {
    out += line;
    out += '\n';
    pending.push_back(stamp);
  }
  bool Flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      out_off += static_cast<std::size_t>(n);
    }
    out.clear();
    out_off = 0;
    return true;
  }
  /// Reads what is there; calls on_reply(stamp, line) per whole reply.
  template <typename Fn>
  bool Drain(Fn&& on_reply) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      in.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = in.find('\n', start)) != std::string::npos; start = nl + 1) {
      if (pending.empty()) return false;
      const double stamp = pending.front();
      pending.pop_front();
      on_reply(stamp, std::string_view(in).substr(start, nl - start));
    }
    in.erase(0, start);
    return true;
  }
};

std::uint64_t Field(std::string_view reply, std::string_view key) {
  const std::size_t pos = reply.find(key);
  if (pos == std::string_view::npos) return 0;
  return std::strtoull(std::string(reply.substr(pos + key.size())).c_str(), nullptr, 10);
}

// --- the ladder -------------------------------------------------------

struct StepResult {
  double rate = 0;
  std::vector<double> latency_ms;  // refused/unanswered lines = +inf
  std::vector<double> query_ms;
  std::vector<double> late_ms;
  std::uint64_t lines = 0;
  std::uint64_t ok = 0, busy = 0, shed = 0, err = 0, lost = 0;
  std::uint64_t backlog_end = 0;
  std::uint64_t queue_max = 0;
  std::uint64_t apply_lag_max = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t journal_bytes = 0;
  double drain_ms = 0;
  double daemon_rss_mb = 0;
  bool daemon_ok = false;
  bool sustainable = false;
};

/// Drives one step's open loop against a fresh daemon: three ingest
/// connections (tenant k gets lines k, k+3, ...), one query connection.
void OpenLoop(const std::string& address, std::size_t step, std::size_t n,
              const std::vector<TimedLine>& merged, StepResult* sr) {
  constexpr double kInf = 1e18;
  Conn ingest[kTenants];
  Conn query;
  bool dead = false;
  for (Conn& c : ingest) dead |= !c.Open(address);
  dead |= !query.Open(address);
  const double interval_ms = 1000.0 / sr->rate;
  const double end_ms = static_cast<double>(n) * interval_ms;
  std::string tenant[kTenants];
  for (int k = 0; k < kTenants; ++k) tenant[k] = TenantId(step, k);
  // What each outstanding query asked, in reply order: 0 periodic
  // health, 1 periodic report, 2 backlog probe at the scheduled end.
  std::deque<int> query_kind;
  std::uint64_t daemon_backlog = 0;
  int end_probes_left = -1;
  std::size_t next = 0;
  std::size_t answered = 0;
  double next_query_ms = 0;
  int query_turn = 0;
  // No allocation growth inside the timed loop.
  sr->latency_ms.reserve(n);
  sr->late_ms.reserve(n);
  for (Conn& c : ingest) c.out.reserve(1 << 20);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto now_ms = [&t0] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  while (!dead) {
    double now = now_ms();
    while (next < n && static_cast<double>(next) * interval_ms <= now) {
      const double due = static_cast<double>(next) * interval_ms;
      const TimedLine& item = merged[next];
      const int k = static_cast<int>(next % kTenants);
      ingest[k].Queue("INGEST " + tenant[k] + " " + ld::LogSourceName(item.source) + " " +
                          item.line,
                      due);
      sr->late_ms.push_back(now - due);
      ++next;
    }
    if (now >= next_query_ms && query_kind.empty() && now < end_ms) {
      const int kind = query_turn++ % 2;
      query.Queue("QUERY " + tenant[query_turn % kTenants] +
                      (kind == 0 ? " health" : " report"),
                  now);
      query_kind.push_back(kind);
      next_query_ms = now + kQueryPeriodMs;
    }
    if (end_probes_left < 0 && now >= end_ms) {
      // Backlog at the scheduled end: unsent + in flight + queued in
      // the daemon (accepted - applied, from QUERY health).
      std::uint64_t inflight = n - next;
      for (const Conn& c : ingest) inflight += c.pending.size();
      sr->backlog_end = inflight;
      end_probes_left = kTenants;
      for (int k = 0; k < kTenants; ++k) {
        query.Queue("QUERY " + tenant[k] + " health", now);
        query_kind.push_back(2);
      }
    }
    for (Conn& c : ingest) dead |= !c.Flush();
    dead |= !query.Flush();

    pollfd fds[kTenants + 1];
    for (int k = 0; k <= kTenants; ++k) {
      const Conn& c = k < kTenants ? ingest[k] : query;
      fds[k] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    double wait_ms = 5;
    if (next < n) wait_ms = std::min(wait_ms, static_cast<double>(next) * interval_ms - now);
    wait_ms = std::max(wait_ms, 0.25);
    const timespec ts{0, static_cast<long>(wait_ms * 1e6)};
    if (::ppoll(fds, kTenants + 1, &ts, nullptr) < 0 && errno != EINTR) break;

    now = now_ms();
    for (Conn& c : ingest) {
      dead |= !c.Drain([&](double due, std::string_view reply) {
        const std::string_view verdict = ld::service::ReplyVerdict(reply);
        ++answered;
        if (verdict == "OK") {
          ++sr->ok;
          sr->latency_ms.push_back(now - due);
          return;
        }
        sr->latency_ms.push_back(kInf);
        if (verdict == "BUSY") ++sr->busy;
        else if (verdict == "SHED") ++sr->shed;
        else ++sr->err;
      });
    }
    dead |= !query.Drain([&](double sent, std::string_view reply) {
      const int kind = query_kind.empty() ? 0 : query_kind.front();
      if (!query_kind.empty()) query_kind.pop_front();
      if (kind != 2) sr->query_ms.push_back(now - sent);
      if (kind == 1) return;
      sr->queue_max = std::max(sr->queue_max, Field(reply, "queue="));
      const std::uint64_t accepted = Field(reply, "accepted=");
      const std::uint64_t applied = Field(reply, "applied=");
      const std::uint64_t lag = accepted > applied ? accepted - applied : 0;
      sr->apply_lag_max = std::max(sr->apply_lag_max, lag);
      if (kind == 2) {
        daemon_backlog += lag;
        --end_probes_left;
      }
    });
    if (next == n && answered == n && end_probes_left == 0 && query_kind.empty()) break;
    if (now > end_ms + kReplyTimeoutMs) break;
  }
  sr->lines = next;
  sr->lost = n - answered;
  for (std::uint64_t i = 0; i < sr->lost; ++i) sr->latency_ms.push_back(kInf);
  sr->backlog_end += daemon_backlog;
}

/// One ladder step against its own fresh logdiverd child: the open
/// loop, then DRAIN, every tenant's report checked against the oracle
/// (verified rates), and the daemon's footprint.
StepResult RunStep(RunContext& ctx, const Ladder& ladder, std::size_t step,
                   const std::vector<TimedLine>& merged) {
  StepResult sr;
  sr.rate = ladder.rates[step];
  const std::size_t n = std::min(ladder.Lines(step), merged.size());
  const std::optional<Daemon> daemon = SpawnDaemon(ctx.logdiverd, "step" + std::to_string(step));
  ctx.checks.Require(daemon.has_value(), "logdiverd did not come up");
  if (!daemon) return sr;
  OpenLoop(daemon->address, step, n, merged, &sr);

  auto client = ld::service::ServiceClient::Connect(daemon->address, 60000);
  sr.daemon_ok = client.ok();
  if (client.ok()) {
    const auto drain_start = Clock::now();
    auto drained = (*client)->Send("DRAIN");
    sr.drain_ms = MsSince(drain_start);
    sr.daemon_ok = drained.ok() && ld::service::ReplyVerdict(*drained) == "OK";
    for (int k = 0; k < kTenants; ++k) {
      auto health = (*client)->Send("QUERY " + TenantId(step, k) + " health");
      if (health.ok()) sr.snapshots += Field(*health, "snapshots=");
    }
    if (ladder.Verified(step)) {
      for (int k = 0; k < kTenants; ++k) {
        const std::string id = TenantId(step, k);
        auto report = (*client)->Send("QUERY " + id + " report");
        ctx.checks.Op(report.ok() && *report == ctx.oracle[TenantOracleKey(n, k)],
                      "tenant " + id + " report differs from the in-process shard");
      }
    }
  }
  ctx.checks.Require(sr.daemon_ok, "DRAIN");
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(daemon->data_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().filename() == "journal.ldj") {
      std::error_code size_ec;
      const auto size = it->file_size(size_ec);
      if (!size_ec) sr.journal_bytes += size;
    }
  }
  sr.daemon_rss_mb = ProcessPeakRssMb(daemon->pid);
  StopDaemon(*daemon);

  const double p99 = Percentile(sr.latency_ms, 99);
  const double allowed_backlog = std::max(64.0, sr.rate * ladder.limit_ms / 1000.0);
  sr.sustainable = sr.daemon_ok && p99 <= ladder.limit_ms &&
                   static_cast<double>(sr.backlog_end) <= allowed_backlog;
  std::cout << "  step " << step << " at " << static_cast<int>(sr.rate)
            << " lines/s: p50 " << Percentile(sr.latency_ms, 50) << " ms, p90 "
            << Percentile(sr.latency_ms, 90) << " ms, p99 " << p99 << " ms, backlog "
            << sr.backlog_end << (sr.sustainable ? "" : "  (not sustainable)") << "\n";
  return sr;
}

/// Latency samples of every step run at `rate`.
std::vector<double> LatencyAt(const std::vector<StepResult>& steps, double rate) {
  std::vector<double> out;
  for (const StepResult& sr : steps) {
    if (sr.rate == rate) {
      out.insert(out.end(), sr.latency_ms.begin(), sr.latency_ms.end());
    }
  }
  return out;
}

/// Runs every step and records the service rows.
void RunLadder(RunContext& ctx, const Ladder& ladder, const std::vector<TimedLine>& merged) {
  std::vector<StepResult> steps;
  for (std::size_t step = 0; step < ladder.rates.size(); ++step) {
    steps.push_back(RunStep(ctx, ladder, step, merged));
  }
  MetricSink& m = ctx.metrics;
  // A rate meets the limit when every step run at it does.
  std::map<double, bool> sustainable;
  std::uint64_t ok = 0, busy = 0, shed = 0, err = 0, lines = 0, snapshots = 0;
  std::uint64_t queue_max = 0, lag_max = 0, journal_max = 0;
  std::vector<double> query_ms, late_ms, drain_ms;
  double rss_max = 0;
  for (const StepResult& sr : steps) {
    ok += sr.ok;
    busy += sr.busy;
    shed += sr.shed;
    err += sr.err + sr.lost;
    lines += sr.lines;
    snapshots += sr.snapshots;
    queue_max = std::max(queue_max, sr.queue_max);
    lag_max = std::max(lag_max, sr.apply_lag_max);
    journal_max = std::max(journal_max, sr.journal_bytes);
    rss_max = std::max(rss_max, sr.daemon_rss_mb);
    query_ms.insert(query_ms.end(), sr.query_ms.begin(), sr.query_ms.end());
    late_ms.insert(late_ms.end(), sr.late_ms.begin(), sr.late_ms.end());
    drain_ms.push_back(sr.drain_ms);
    const auto [it, fresh] = sustainable.emplace(sr.rate, sr.sustainable);
    if (!fresh) it->second = it->second && sr.sustainable;
  }
  double max_rate = 0;
  for (const auto& [rate, meets] : sustainable) {
    if (meets) max_rate = std::max(max_rate, rate);
  }
  for (const auto& [name, rate] : {std::pair{"low", ladder.low}, std::pair{"high", ladder.high}}) {
    const std::vector<double> latency = LatencyAt(steps, rate);
    m.Set(std::string("ingest.") + name + "_ms_p50", Percentile(latency, 50), "ms",
          "due -> OK at " + std::to_string(static_cast<int>(rate)) + " lines/s");
    m.Set(std::string("ingest.") + name + "_ms_p99", Percentile(latency, 99), "ms",
          "n=" + std::to_string(latency.size()));
  }
  m.Set("ingest.max_rate_lps", max_rate, "1/s",
        "highest rate with p99 <= " + std::to_string(static_cast<int>(ladder.limit_ms)) +
            " ms and no backlog");
  m.Set("query.ms_p99", Percentile(query_ms, 99), "ms",
        "QUERY health/report under load, n=" + std::to_string(query_ms.size()));
  m.Set("svc.ok", static_cast<double>(ok), "count");
  m.Set("svc.busy", static_cast<double>(busy), "count");
  m.Set("svc.shed", static_cast<double>(shed), "count");
  m.Set("svc.err", static_cast<double>(err), "count", "ERR replies + unanswered");
  m.Set("svc.apply_lag_max", static_cast<double>(lag_max), "count");
  m.Set("svc.queue_max", static_cast<double>(queue_max), "count");
  m.Set("svc.snapshots", static_cast<double>(snapshots), "count");
  m.Set("svc.journal_mb", static_cast<double>(journal_max) / 1048576.0, "MB",
        "largest step's journals");
  m.Set("svc.drain_ms", Percentile(drain_ms, 50), "ms", "median DRAIN round trip");
  m.Set("svc.rss_mb", rss_max, "MB", "largest daemon VmHWM");
  m.Set("loadgen.late_ms_p99", Percentile(late_ms, 99), "ms", "send time - due time");
  m.Set("loadgen.lines", static_cast<double>(lines), "count");
}

bool LoadMerged(RunContext& ctx, std::vector<TimedLine>* merged) {
  const bool ok = ReadMerged(kMergedFile, merged) && !merged->empty();
  ctx.checks.Require(ok, "merged line stream");
  return ok;
}

}  // namespace

void RunServiceSweep(RunContext& ctx, const ld::Machine& machine) {
  std::vector<TimedLine> merged;
  if (!LoadMerged(ctx, &merged)) return;
  Tracer& tracer = ctx.tracer;
  MetricSink& m = ctx.metrics;
  constexpr int kOp = 5;

  // Per-line StreamingAnalyzer apply.
  {
    const std::size_t n = std::min<std::size_t>(20000, merged.size());
    ld::StreamingAnalyzer analyzer(machine, ld::LogDiverConfig{});
    ScopedSpan span(&tracer, "stream.apply", kOp);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const TimedLine& t = merged[i];
      switch (t.source) {
        case ld::LogSource::kTorque: analyzer.AddTorqueLine(t.line); break;
        case ld::LogSource::kAlps: analyzer.AddAlpsLine(t.line); break;
        case ld::LogSource::kSyslog: analyzer.AddSyslogLine(t.line); break;
        case ld::LogSource::kHwerr: analyzer.AddHwerrLine(t.line); break;
      }
    }
    m.Set("stream.apply_us", MsSince(start) * 1000.0 / static_cast<double>(n), "us",
          "per Add*Line, " + std::to_string(n) + " lines");
  }

  // In-process daemon: HandleCommand for INGEST, PING over the socket.
  {
    ld::service::ServiceOptions options;
    options.data_dir = "probe-data";
    options.listen = "unix:probe.sock";
    std::filesystem::remove_all(options.data_dir);
    ld::service::LogDiverDaemon daemon(machine, options);
    ctx.checks.Require(daemon.Start().ok(), "in-process daemon start");
    const std::size_t n = std::min<std::size_t>(5000, merged.size());
    std::vector<double> handle_us;
    {
      ScopedSpan span(&tracer, "svc.handle", kOp);
      for (std::size_t i = 0; i < n; ++i) {
        const std::string command = std::string("INGEST probe ") +
                                    ld::LogSourceName(merged[i].source) + " " +
                                    merged[i].line;
        for (;;) {
          const auto start = Clock::now();
          const std::string reply = daemon.HandleCommand(command);
          handle_us.push_back(MsSince(start) * 1000.0);
          if (ld::service::ReplyVerdict(reply) != "BUSY") break;
          ::usleep(200);
        }
      }
    }
    m.Set("svc.handle_us", Percentile(handle_us, 50), "us",
          "median HandleCommand(INGEST), n=" + std::to_string(handle_us.size()));
    std::vector<double> rtt_us;
    {
      ScopedSpan span(&tracer, "sock.ping", kOp);
      auto client = ld::service::ServiceClient::Connect(options.listen, 5000);
      ctx.checks.Require(client.ok(), "probe connection");
      for (int i = 0; client.ok() && i < 2000; ++i) {
        const auto start = Clock::now();
        auto reply = (*client)->Send("PING");
        if (!reply.ok()) break;
        rtt_us.push_back(MsSince(start) * 1000.0);
      }
    }
    m.Set("sock.rtt_us", Percentile(rtt_us, 50), "us",
          "median PING round trip, n=" + std::to_string(rtt_us.size()));
    daemon.Stop();
    std::filesystem::remove_all(options.data_dir);
  }

  // The whole ladder, one logdiverd child per step.
  ScopedSpan span(&tracer, "svc.ladder", kOp);
  RunLadder(ctx, MakeLadder(), merged);
}

}  // namespace perfbench
