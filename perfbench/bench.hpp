// Entry points of the benchmark's op files.  Every function drives the
// program only through its public API (see README.md, "What is timed").
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/records.hpp"

namespace perfbench {

struct Args {
  std::string mode;  // "gen" or "run"
  Workload workload = Workload::kBwBatch;
  std::uint64_t seed = 7;
  int seconds = 10;
  bool trace = false;
};

/// What a measuring run has to work with.  The gen process leaves the
/// bundle, the merged line stream and the oracle in the working dir.
struct RunContext {
  const Args& args;
  KeyValues oracle;
  MetricSink metrics;
  Checks checks;
  Tracer tracer;
  std::string logdiverd;  // path of the daemon binary
};

inline constexpr const char* kBundleDir = "bundle";
inline constexpr const char* kMergedFile = "merged.txt";
inline constexpr const char* kOracleFile = "oracle.txt";

// inputs.cpp --------------------------------------------------------

struct TimedLine {
  ld::LogSource source = ld::LogSource::kTorque;
  std::string line;
};

/// Writes the workload's bundle, merged stream and oracle.  Exit code.
int GenMain(const Args& args);
bool ReadMerged(const std::string& path, std::vector<TimedLine>* out);

// batch.cpp ---------------------------------------------------------

/// bw-batch / error-storm: bundle path -> verified report.
void RunBatchWorkload(RunContext& ctx);
/// bw-rerun: cold / retune / warm cycle through the bundle cache.
void RunRerunWorkload(RunContext& ctx);
/// fleet-replay: 4-shard ShardSupervisor -> verified merged report.
void RunFleetWorkload(RunContext& ctx);
/// The traced run: the batch op decomposed at 4 and 1 threads, the
/// cache cycle, fleet vs streaming, and the service ladder.
void RunTracedSweep(RunContext& ctx);

// service.cpp -------------------------------------------------------

/// The service layers of the traced run (probes plus one ladder).
void RunServiceSweep(RunContext& ctx, const ld::Machine& machine);

}  // namespace perfbench
