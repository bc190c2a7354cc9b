// ldbench — the LogDiver benchmark harness (run it through run.py).
//
//   ldbench gen --workload W --seed N --seconds S --trace 0|1
//       simulate the workload's input into the working directory and
//       compute the oracle its outputs are checked against;
//   ldbench run --workload W --seed N --seconds S --trace 0|1
//               [--trace-out FILE]
//       set up, measure for S seconds (or, with --trace 1, run the
//       traced sweep once) and write result.json: every metric with its
//       unit, the correct/attempted/failed tallies and the provenance.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "common/obs/build_info.hpp"
#include "common/obs/trace.hpp"
#include "common/simd.hpp"

namespace perfbench {
namespace {

int Usage() {
  std::cerr << "usage: ldbench gen|run --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n";
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Refuses to time a build that is unoptimised or sanitized.
bool BuildFitForTiming(std::string* why) {
  const ld::obs::BuildInfo& info = ld::obs::GetBuildInfo();
  const std::string type = info.build_type;
#ifndef __OPTIMIZE__
  *why = "this binary was compiled without optimisation";
  return false;
#endif
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type '" + type + "' is not Release or RelWithDebInfo";
    return false;
  }
  if (info.sanitizers[0] != '\0') {
    *why = std::string("build is sanitized (") + info.sanitizers + ")";
    return false;
  }
  return true;
}

std::string SelfDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* trace_out) {
  if (argc < 2) return false;
  args->mode = argv[1];
  if (args->mode != "gen" && args->mode != "run") return false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      *trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 0;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  std::string trace_out;
  if (!ParseArgs(argc, argv, &args, &trace_out)) return Usage();
  std::string why;
  if (!BuildFitForTiming(&why)) {
    std::cerr << "perfbench: refusing to time this build: " << why << "\n";
    return 3;
  }
  if (args.mode == "gen") return GenMain(args);

  RunContext ctx{args, {}, {}, {}, {}, SelfDir() + "/logdiverd"};
  if (!ReadKeyValues(kOracleFile, &ctx.oracle)) {
    std::cerr << "perfbench: no oracle; run 'ldbench gen' first\n";
    return 1;
  }
  if (args.trace) {
    RunTracedSweep(ctx);
    ld::obs::Tracer& spans = ld::obs::Tracer::Get();
    spans.Stop();
    ctx.metrics.Set("simlog.gen_s", std::strtod(ctx.oracle["gen_s"].c_str(), nullptr),
                    "s", "input simulation (harness)");
    if (!trace_out.empty()) {
      const ld::Status written = spans.WriteJson(trace_out);
      if (!written.ok()) std::cerr << "perfbench: " << written.ToString() << "\n";
    }
  } else {
    switch (args.workload) {
      case Workload::kBwBatch:
      case Workload::kErrorStorm: RunBatchWorkload(ctx); break;
      case Workload::kBwRerun: RunRerunWorkload(ctx); break;
      case Workload::kFleetReplay: RunFleetWorkload(ctx); break;
    }
    ctx.metrics.Set("peak_rss_mb", std::max(SelfPeakRssMb(), ChildrenPeakRssMb()), "MB",
                    "VmHWM of the bench process and its largest child");
    ctx.metrics.Set("score_f1", std::strtod(ctx.oracle["batch.f1"].c_str(), nullptr),
                    "ratio", "system-failure F1 vs injector ground truth");
  }

  const ld::obs::BuildInfo& info = ld::obs::GetBuildInfo();
  const bool correct = ctx.checks.failed == 0 && ctx.checks.harness_ok;
  std::ofstream out("result.json");
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << ctx.checks.attempted << ",\"failed\":" << ctx.checks.failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, row] : ctx.metrics.rows()) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"value\":" << JsonNumber(row.value)
        << ",\"unit\":" << JsonString(row.unit) << ",\"note\":" << JsonString(row.note)
        << "}";
    first = false;
  }
  out << "},\"provenance\":{\"workload\":" << JsonString(WorkloadName(args.workload))
      << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << JsonString(CpuModel())
      << ",\"simd_backend\":" << JsonString(ld::simd::BackendName())
      << ",\"build_type\":" << JsonString(info.build_type)
      << ",\"cxx_flags\":" << JsonString(info.cxx_flags)
      << ",\"sanitizers\":" << JsonString(info.sanitizers)
      << ",\"git_sha\":" << JsonString(info.git_sha)
      << ",\"threads\":" << kThreads << "}}\n";
  if (!out) {
    std::cerr << "perfbench: cannot write result.json\n";
    return 1;
  }

  std::printf("%-30s %16s  %-6s %s\n", "metric", "value", "unit", "note");
  for (const auto& [name, row] : ctx.metrics.rows()) {
    std::printf("%-30s %16.6g  %-6s %s\n", name.c_str(), row.value, row.unit.c_str(),
                row.note.c_str());
  }
  std::printf("correct=%s attempted=%llu failed=%llu\n", correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.checks.attempted),
              static_cast<unsigned long long>(ctx.checks.failed));
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
