#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"

namespace perfbench {

namespace {

struct WorkloadEntry {
  Workload workload;
  const char* name;
};

constexpr WorkloadEntry kWorkloads[] = {
    {Workload::kBwBatch, "bw-batch"},
    {Workload::kErrorStorm, "error-storm"},
    {Workload::kBwRerun, "bw-rerun"},
    {Workload::kFleetReplay, "fleet-replay"},
};

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const WorkloadEntry& entry : kWorkloads) {
    if (name == entry.name) {
      *out = entry.workload;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  for (const WorkloadEntry& entry : kWorkloads) {
    if (entry.workload == w) return entry.name;
  }
  return "?";
}

ld::ScenarioConfig ShapeConfig(Workload w, std::uint64_t seed) {
  ld::ScenarioConfig config;  // full Blue Waters machine, 518 days
  config.seed = seed;
  config.full_machine = true;
  switch (w) {
    case Workload::kBwBatch:
    case Workload::kBwRerun:
      // The paper's study shape: parse and the serial tail dominate.
      config.workload.target_app_runs = 200000;
      break;
    case Workload::kErrorStorm: {
      // Few runs, ten times the benign error floor and Lustre incidents:
      // coalescing and the syslog/hwerr parsers dominate instead.
      config.workload.target_app_runs = 30000;
      ld::FaultModelConfig& f = config.faults;
      f.corrected_mce_per_day *= 10;
      f.corrected_gpu_per_day *= 10;
      f.link_degrade_per_day *= 10;
      f.lustre_incidents_per_day *= 10;
      break;
    }
    case Workload::kFleetReplay:
      // bw-batch-shaped, sized so one 4-shard fleet op takes about 1 s.
      config.workload.target_app_runs = 50000;
      break;
  }
  return config;
}

ld::LogDiverConfig RetunedConfig(ld::LogDiverConfig config) {
  // One analysis-key setting: a wider attribution look-back.  The parse
  // key is untouched, so the cache serves the parsed records.
  config.correlator.attribution_before = ld::Duration::Seconds(420);
  return config;
}

std::size_t Ladder::MaxLines() const {
  std::size_t most = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) most = std::max(most, Lines(i));
  return most;
}

Ladder MakeLadder() {
  // Capacity on the seed (4 cores, 3 tenants, a few seconds per tenant)
  // is 60-90k lines/s, depending on how busy the host is; at 60k a
  // tenant's default 1024-line queue overflowed during a snapshot in 2
  // of 10 runs, so the high rate is 2/3 of the low end.
  Ladder ladder;
  ladder.low = 15000;
  ladder.high = 40000;
  ladder.limit_ms = 50;
  ladder.rates = {15000, 30000, 40000, 60000, 90000, 120000};
  ladder.step_seconds = 2;
  return ladder;
}

std::string TenantId(std::size_t step, int k) {
  return "s" + std::to_string(step) + "-t" + std::to_string(k);
}

std::string TenantOracleKey(std::size_t lines, int k) {
  return "svc." + std::to_string(lines) + "." + std::to_string(k);
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[index];
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Percentile(samples, 50);
  s.tail = Percentile(samples, 90);
  std::size_t beyond = 0;
  for (const double v : samples) beyond += v > s.tail ? 1 : 0;
  s.beyond = beyond;
  return s;
}

void SetOpMetrics(MetricSink& metrics, const std::vector<double>& samples,
                  const std::string& what) {
  const Summary s = Summarize(samples);
  metrics.Set("op_ms_p50", s.p50, "ms", what + ", n=" + std::to_string(s.n));
  metrics.Set("op_ms_tail", s.tail, "ms",
              "p90 of n=" + std::to_string(s.n) + ", " + std::to_string(s.beyond) +
                  " beyond");
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  rows_[name] = Row{value, unit, note};
}

void Checks::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

void Checks::Require(bool ok, const std::string& what) {
  if (!ok) {
    harness_ok = false;
    std::cerr << "perfbench: CHECK FAILED " << what << "\n";
  }
}

int Tracer::Begin(const std::string& name, int op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = ld::obs::NowNanos();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = ld::obs::NowNanos();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  ld::obs::Tracer::Get().Emit(span.name, span.start_ns, span.end_ns);
}

double Tracer::TotalMs(const std::string& name, int op) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.op == op && s.name == name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) / 1e6;
}

double Tracer::ChildCoverage(int id) const {
  const Span& parent = spans_[static_cast<std::size_t>(id)];
  std::uint64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent == id) covered += s.end_ns - s.start_ns;
  }
  const std::uint64_t length = parent.end_ns - parent.start_ns;
  return length == 0 ? 0 : static_cast<double>(covered) / static_cast<double>(length);
}

bool WriteKeyValues(const std::string& path, const KeyValues& kv) {
  std::ofstream out(path);
  for (const auto& [key, value] : kv) out << key << '=' << value << '\n';
  return static_cast<bool>(out);
}

bool ReadKeyValues(const std::string& path, KeyValues* kv) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    (*kv)[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return true;
}

double ProcessPeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double SelfPeakRssMb() { return ProcessPeakRssMb(static_cast<int>(::getpid())); }

double ChildrenPeakRssMb() {
  struct rusage usage {};
  if (::getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
