// Shared pieces of the LogDiver benchmark harness: workload table, input
// shapes, sample statistics, the metric sink, the span bookkeeping and
// the key=value files the input generator leaves for the measuring
// process.  See perfbench/README.md for what each workload
// and metric means.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logdiver/logdiver.hpp"
#include "simlog/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

enum class Workload { kBwBatch, kErrorStorm, kBwRerun, kFleetReplay };

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Threads, shards and connections every workload runs with.
inline constexpr int kThreads = 4;
inline constexpr std::uint32_t kFleetShards = 4;
inline constexpr int kTenants = 3;
/// Set-up is timed in this many fresh processes; setup_s is the median.
/// One set-up takes 10-25 ms, so all of them cost under a second.
inline constexpr int kSetupReps = 41;

/// The simulated campaign behind a workload's input, from its seed.
ld::ScenarioConfig ShapeConfig(Workload w, std::uint64_t seed);

/// The analysis-key setting the bw-rerun "retune" op changes.
ld::LogDiverConfig RetunedConfig(ld::LogDiverConfig config);

/// Open-loop rate steps of the traced run's service ladder.  Every step
/// starts fresh tenants on the head of the merged stream, so tenant
/// state (and with it snapshot cost) is the same in every step of one
/// rate.  `low` and `high` are the two latency-reported rates (about 1/4
/// and 2/3 of the seed's capacity on a busy host); both are sustainable.
struct Ladder {
  std::vector<double> rates;  // lines per second, one step each
  double step_seconds = 0;
  double low = 0;
  double high = 0;
  double limit_ms = 0;   // p99 ingest latency limit for max_rate
  std::size_t Lines(std::size_t step) const {
    return static_cast<std::size_t>(rates[step] * step_seconds);
  }
  bool Verified(std::size_t step) const {
    return rates[step] == low || rates[step] == high;
  }
  /// Lines of the merged stream the ladder needs (the longest step).
  std::size_t MaxLines() const;
};
/// The whole ladder, for max_rate.
Ladder MakeLadder();
/// Tenant id of tenant `k` in ladder step `step`.
std::string TenantId(std::size_t step, int k);
/// Oracle key of tenant `k`'s report after the first `lines` lines.
std::string TenantOracleKey(std::size_t lines, int k);

// --- statistics -----------------------------------------------------

/// Nearest-rank percentile of unsorted samples (0 when empty).
double Percentile(std::vector<double> samples, double pct);

/// Median plus p90 as the printed tail.  A batch run has 10-25 ops, so
/// p90 is the highest percentile with any sample beyond it.  `beyond`
/// says how many samples lie past the tail.
struct Summary {
  double p50 = 0;
  double tail = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Summary Summarize(const std::vector<double>& samples);

class MetricSink;
/// Sets op_ms_p50 and op_ms_tail from a workload's op latencies.
void SetOpMetrics(MetricSink& metrics, const std::vector<double>& samples,
                  const std::string& what);

// --- metrics --------------------------------------------------------

class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");

  struct Row {
    double value = 0;
    std::string unit;
    std::string note;
  };
  const std::map<std::string, Row>& rows() const { return rows_; }

 private:
  std::map<std::string, Row> rows_;
};

/// Tallies verification outcomes; feeds correct/attempted/failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool harness_ok = true;  // a check that is not an operation failed
  void Op(bool ok, const std::string& what);
  void Require(bool ok, const std::string& what);
};

// --- spans ----------------------------------------------------------

/// The harness's spans.  Each is emitted to ld::obs::Tracer (which
/// writes the Chrome trace JSON) and kept here with its parent and op id
/// for the per-layer sums and the coverage check.  Spans nest on one
/// thread, so a span's parent is the innermost one still open.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    int op = 0;
  };

  int Begin(const std::string& name, int op);
  void End(int id);

  /// Sum of the durations (ms) of spans named `name` in op `op`.
  double TotalMs(const std::string& name, int op) const;
  /// Share of span `id` covered by its direct children (which, nesting
  /// on one thread, never overlap).
  double ChildCoverage(int id) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int op)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// --- files ----------------------------------------------------------

using KeyValues = std::map<std::string, std::string>;
bool WriteKeyValues(const std::string& path, const KeyValues& kv);
bool ReadKeyValues(const std::string& path, KeyValues* kv);

/// VmHWM of this process, in MB.
double SelfPeakRssMb();
/// Largest max-RSS among this process's reaped children, in MB.
double ChildrenPeakRssMb();
/// VmHWM of a live process, in MB (0 when unreadable).
double ProcessPeakRssMb(int pid);
/// Lossless text forms the oracle is compared in.
std::string Hex32(std::uint32_t v);
std::string Exact(double v);

}  // namespace perfbench
