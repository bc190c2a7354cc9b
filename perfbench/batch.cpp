// The batch workloads (bw-batch, error-storm, bw-rerun, fleet-replay)
// and the traced run.  An op goes from the bundle path to a rendered,
// scored report whose fingerprint is checked against the oracle the gen
// process computed by another path.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "analysis/scoring.hpp"
#include "bench.hpp"
#include "common/obs/trace.hpp"
#include "common/parallel.hpp"
#include "logdiver/block_reader.hpp"
#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/fleet/supervisor.hpp"
#include "logdiver/report.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/snapshot.hpp"

namespace perfbench {
namespace {

/// The report every batch op renders: the CLI's analyze tables.
std::string RenderReport(const ld::AnalysisResult& analysis) {
  std::ostringstream out;
  const ld::MetricsReport& m = analysis.metrics;
  ld::PrintParseSummary(out, analysis);
  ld::PrintHeadline(out, m);
  ld::PrintOutcomeBreakdown(out, m);
  ld::PrintCategoryTable(out, m);
  ld::PrintAttributionTable(out, m);
  ld::PrintScaleCurve(out, m.xe_scale, "XE");
  ld::PrintScaleCurve(out, m.xk_scale, "XK");
  ld::PrintMonthlySeries(out, m);
  ld::PrintQueueWaits(out, m);
  ld::PrintDetectionGap(out, m);
  return out.str();
}

std::string TruthPath() { return std::string(kBundleDir) + "/ground_truth.csv"; }

/// Median wall time (s) of `fn` over kSetupReps forked children, each
/// timing one call the way a fresh CLI process pays it.  One child's
/// set-up takes about 9 or about 16 ms, depending on which CPU of a
/// shared host it lands on; the median over many children is steadier
/// than any one process.  Call before any thread is started.
template <typename Fn>
double ForkedSetupSeconds(Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupReps; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      const auto start = Clock::now();
      fn();
      const double seconds = MsSince(start) / 1000.0;
      const bool written = ::write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
      std::_Exit(written ? 0 : 1);
    }
    ::close(fds[1]);
    double seconds = 0;
    const bool got = pid > 0 && ::read(fds[0], &seconds, sizeof(seconds)) == sizeof(seconds);
    ::close(fds[0]);
    if (pid > 0) ::waitpid(pid, nullptr, 0);
    if (got) samples.push_back(seconds);
  }
  return Percentile(samples, 50);
}

/// Machine model plus analyzer, as a CLI analyze run builds them.
struct BatchSetup {
  std::unique_ptr<ld::Machine> machine;
  std::unique_ptr<ld::LogDiver> diver;
  std::unique_ptr<ld::LogDiver> cached;   // bw-rerun, config A
  std::unique_ptr<ld::LogDiver> retuned;  // bw-rerun, config B
};

ld::LogDiverConfig BatchConfig() {
  ld::LogDiverConfig config;
  config.threads = kThreads;
  return config;
}

inline constexpr const char* kCacheDir = "cache";

BatchSetup MakeSetup(const ld::ScenarioConfig& scenario) {
  BatchSetup s;
  s.machine = std::make_unique<ld::Machine>(ld::MakeMachine(scenario));
  s.diver = std::make_unique<ld::LogDiver>(*s.machine, BatchConfig());
  ld::LogDiverConfig cached = BatchConfig();
  cached.bundle_cache_dir = kCacheDir;
  s.cached = std::make_unique<ld::LogDiver>(*s.machine, cached);
  s.retuned = std::make_unique<ld::LogDiver>(*s.machine, RetunedConfig(cached));
  return s;
}

BatchSetup TimedSetup(RunContext& ctx) {
  const ld::ScenarioConfig scenario =
      ShapeConfig(ctx.args.workload, ctx.args.seed);
  const double setup_s = ForkedSetupSeconds([&] { MakeSetup(scenario); });
  ctx.metrics.Set("setup_s", setup_s, "s",
                  "median of " + std::to_string(kSetupReps) +
                      " fresh processes' machine+analyzer builds");
  return MakeSetup(scenario);
}

struct OpResult {
  bool ok = false;
  double ms = 0;
  ld::CacheOutcome outcome = ld::CacheOutcome::kDisabled;
  std::uint32_t fp = 0;
};

/// One batch op: AnalyzeBundle -> every report table -> ground truth
/// load + score -> verified against the oracle fingerprint (and F1).
OpResult BatchOp(const ld::LogDiver& diver, const std::string& want_fp,
                 const std::string& want_f1) {
  OpResult r;
  const auto start = Clock::now();
  auto analysis = diver.AnalyzeBundle(kBundleDir);
  if (!analysis.ok()) {
    std::cerr << "perfbench: analyze: " << analysis.status().ToString() << "\n";
    return r;
  }
  const std::string text = RenderReport(*analysis);
  auto truth = ld::LoadGroundTruth(TruthPath());
  if (!truth.ok()) return r;
  const ld::ScoreReport score =
      ld::ScoreClassification(analysis->runs, analysis->classified, *truth);
  r.fp = ld::FingerprintReport(analysis->metrics);
  r.ms = MsSince(start);
  r.outcome = analysis->cache_outcome;
  r.ok = !text.empty() && Hex32(r.fp) == want_fp &&
         (want_f1.empty() || Exact(score.system_f1) == want_f1);
  return r;
}

bool Expired(Clock::time_point deadline) { return Clock::now() >= deadline; }

Clock::time_point Deadline(const RunContext& ctx) {
  return Clock::now() + std::chrono::seconds(ctx.args.seconds);
}

// --- the traced decomposition -----------------------------------------

/// The four bundle files mapped and split into lines.
struct LoadedViews {
  std::vector<ld::MappedFile> maps;
  ld::LogSetView views;
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
};

bool LoadViews(ld::ThreadPool* pool, LoadedViews* out) {
  const std::string dir = kBundleDir;
  for (auto [name, dest] : {std::pair{"torque", &out->views.torque},
                            std::pair{"alps", &out->views.alps},
                            std::pair{"syslog", &out->views.syslog},
                            std::pair{"hwerr", &out->views.hwerr}}) {
    auto segments = ld::RotationSegments(dir + "/" + name + ".log");
    if (!segments.ok()) return false;
    for (const std::string& path : *segments) {
      auto file = ld::MappedFile::Open(path);
      if (!file.ok()) return false;
      const auto lines = ld::SplitLinesParallel(file->data(), pool);
      dest->insert(dest->end(), lines.begin(), lines.end());
      out->bytes += file->size();
      out->lines += lines.size();
      out->maps.push_back(std::move(*file));
    }
  }
  return true;
}

/// Chunk-parallel parse of one source into its ordered reduction; the
/// two halves get their own spans.
template <typename Parser, typename Record>
std::vector<Record> ParseSource(Tracer& tracer, int op, const char* name,
                                Parser& parser,
                                const std::vector<std::string_view>& lines,
                                ld::ThreadPool* pool,
                                const ld::QuarantineConfig* capture,
                                ld::QuarantineSink* sink) {
  const auto ranges = ld::ChunkRanges(lines.size(), ld::kDefaultParseChunkLines);
  std::vector<typename Parser::Chunk> chunks(ranges.size());
  {
    ScopedSpan span(&tracer, std::string("parse.") + name, op);
    ld::TaskGroup group(pool);
    const std::string_view* base = lines.data();
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      const ld::IndexRange r = ranges[i];
      auto* slot = &chunks[i];
      group.Run([base, r, slot, capture] {
        *slot = Parser::ParseChunk(
            std::span<const std::string_view>(base + r.begin, r.size()),
            static_cast<std::uint64_t>(r.begin) + 1, capture);
      });
    }
    group.Wait();
  }
  ScopedSpan span(&tracer, std::string("reduce.") + name, op);
  return parser.ReduceChunks(std::move(chunks), sink);
}

struct Decomposed {
  bool ok = false;
  int op_span = -1;
  double op_ms = 0;
  std::uint32_t fp = 0;
  std::string f1;
  ld::ParseStats stats[4];
  ld::CoalesceStats coalesce;
  ld::ReconstructStats reconstruct;
  std::uint64_t load_bytes = 0;
  std::uint64_t load_lines = 0;
  std::uint64_t system_failures = 0;
  std::uint64_t unattributed = 0;
  std::size_t report_bytes = 0;
  ld::MetricsReport metrics;
};

/// The batch op taken apart into the public calls it is made of, one
/// span per layer, at `threads` threads.
Decomposed DecomposedOp(Tracer& tracer, int op, const ld::Machine& machine,
                        int threads) {
  Decomposed d;
  ld::LogDiverConfig config = BatchConfig();
  config.threads = threads;
  std::optional<ld::ThreadPool> pool_storage;
  if (threads > 1) pool_storage.emplace(threads);
  ld::ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;

  // Declared before the op span: their destruction is not part of the
  // op, as it is not part of BatchOp's timing either.
  LoadedViews loaded;
  ld::ParsedLogs parsed;
  ld::AnalysisResult result;
  std::string text;
  std::optional<std::unordered_map<ld::ApId, ld::TruthRecord>> truth;

  ScopedSpan op_span(&tracer, "op", op);
  d.op_span = op_span.id();
  const auto start = Clock::now();
  {
    ScopedSpan span(&tracer, "block_reader", op);
    if (!LoadViews(pool, &loaded)) return d;
  }
  d.load_bytes = loaded.bytes;
  d.load_lines = loaded.lines;

  parsed.sink = ld::QuarantineSink(config.ingest.quarantine);
  const ld::QuarantineConfig* capture = &config.ingest.quarantine;
  {
    ScopedSpan span(&tracer, "parse", op);
    ld::TorqueParser torque;
    parsed.torque = ParseSource<ld::TorqueParser, ld::TorqueRecord>(
        tracer, op, "torque", torque, loaded.views.torque, pool, capture, &parsed.sink);
    parsed.torque_stats = torque.stats();
    ld::AlpsParser alps;
    parsed.alps = ParseSource<ld::AlpsParser, ld::AlpsRecord>(
        tracer, op, "alps", alps, loaded.views.alps, pool, capture, &parsed.sink);
    parsed.alps_stats = alps.stats();
    ld::SyslogParser syslog(config.syslog_base_year);
    const auto errors = ParseSource<ld::SyslogParser, ld::ErrorRecord>(
        tracer, op, "syslog", syslog, loaded.views.syslog, pool, capture, &parsed.sink);
    parsed.syslog_stats = syslog.stats();
    ld::HwerrParser hwerr;
    const auto hw = ParseSource<ld::HwerrParser, ld::ErrorRecord>(
        tracer, op, "hwerr", hwerr, loaded.views.hwerr, pool, capture, &parsed.sink);
    parsed.hwerr_stats = hwerr.stats();
    ScopedSpan columns(&tracer, "reduce.columns", op);
    parsed.errors.reserve(errors.size() + hw.size());
    parsed.errors.Append(errors);
    parsed.errors.Append(hw);
  }
  d.stats[0] = parsed.torque_stats;
  d.stats[1] = parsed.alps_stats;
  d.stats[2] = parsed.syslog_stats;
  d.stats[3] = parsed.hwerr_stats;
  for (const ld::ParseStats& s : d.stats) {
    if (config.ingest.budget.Exceeded(s)) return d;  // the bench input is clean
  }

  result.torque_stats = parsed.torque_stats;
  result.alps_stats = parsed.alps_stats;
  result.syslog_stats = parsed.syslog_stats;
  result.hwerr_stats = parsed.hwerr_stats;
  {
    ScopedSpan span(&tracer, "coalesce", op);
    result.tuples = ld::CoalesceEvents(machine, parsed.errors, config.coalesce,
                                       &result.coalesce_stats);
  }
  {
    ScopedSpan span(&tracer, "reconstruct", op);
    result.runs = ld::ReconstructRuns(machine, std::move(parsed.alps), parsed.torque,
                                      &result.reconstruct_stats);
  }
  {
    ScopedSpan span(&tracer, "classify", op);
    const ld::Correlator correlator(machine, config.correlator);
    result.classified = correlator.Classify(result.runs, result.tuples, pool);
  }
  {
    ScopedSpan span(&tracer, "metrics", op);
    result.metrics = ld::ComputeMetrics(result.runs, result.classified,
                                        result.tuples, config.metrics);
    // The ingest mirror AnalyzeParsed adds to every report.
    result.ingest.quarantined = parsed.sink.total();
    result.ingest.quarantine_overflow = parsed.sink.overflow();
    result.ingest.duplicate_placements =
        result.reconstruct_stats.duplicate_placements;
    result.ingest.duplicate_terminations =
        result.reconstruct_stats.duplicate_terminations;
    result.quarantine = parsed.sink.entries();
    result.metrics.ingest = result.ingest;
  }
  {
    ScopedSpan span(&tracer, "report", op);
    text = RenderReport(result);
  }
  ld::ScoreReport score;
  {
    ScopedSpan span(&tracer, "scoring", op);
    {
      ScopedSpan load(&tracer, "scoring.gt_load", op);
      auto loaded_truth = ld::LoadGroundTruth(TruthPath());
      if (!loaded_truth.ok()) return d;
      truth = std::move(*loaded_truth);
    }
    score = ld::ScoreClassification(result.runs, result.classified, *truth);
  }
  d.fp = ld::FingerprintReport(result.metrics);
  d.op_ms = MsSince(start);
  d.f1 = Exact(score.system_f1);
  d.coalesce = result.coalesce_stats;
  d.reconstruct = result.reconstruct_stats;
  for (const ld::ClassifiedRun& c : result.classified) {
    if (c.outcome != ld::AppOutcome::kSystemFailure) continue;
    ++d.system_failures;
    if (c.cause == ld::ErrorCategory::kUnknown) ++d.unattributed;
  }
  d.report_bytes = text.size();
  d.metrics = std::move(result.metrics);
  d.ok = !text.empty();
  return d;
}

void SetStageRows(RunContext& ctx, const Decomposed& d, int op, const char* suffix) {
  const Tracer& t = ctx.tracer;
  MetricSink& m = ctx.metrics;
  const std::string sfx = suffix;
  const char* sources[] = {"torque", "alps", "syslog", "hwerr"};
  m.Set("load.ms" + sfx, t.TotalMs("block_reader", op), "ms");
  double reduce = t.TotalMs("reduce.columns", op);
  for (int i = 0; i < 4; ++i) {
    const std::string src = sources[i];
    m.Set("parse." + src + ".ms" + sfx, t.TotalMs("parse." + src, op), "ms");
    reduce += t.TotalMs("reduce." + src, op);
  }
  m.Set("parse.ms" + sfx, t.TotalMs("parse", op), "ms", "chunk parse + reductions");
  m.Set("reduce.ms" + sfx, reduce, "ms", "serial ordered reductions");
  double tail = 0;
  for (const char* stage : {"coalesce", "reconstruct", "classify", "metrics"}) {
    const double ms = t.TotalMs(stage, op);
    m.Set(std::string(stage) + ".ms" + sfx, ms, "ms");
    tail += ms;
  }
  m.Set("report.ms" + sfx, t.TotalMs("report", op), "ms");
  m.Set("scoring.ms" + sfx, t.TotalMs("scoring", op), "ms");
  m.Set("op.ms" + sfx, d.op_ms, "ms", "traced op wall");
  m.Set("tail.share" + sfx, d.op_ms > 0 ? tail / d.op_ms : 0, "ratio",
        "(coalesce+reconstruct+classify+metrics)/op");
}

std::uint64_t CategoryTuples(const ld::MetricsReport& report, const char* name) {
  for (const ld::CategoryRow& row : report.categories) {
    if (std::string(ld::ErrorCategoryName(row.category)) == name) return row.tuples;
  }
  return 0;
}

// The cache layer, call by call, then the three AnalyzeBundle cycle ops.
void TracedCache(RunContext& ctx, const BatchSetup& setup, int op) {
  Tracer& tracer = ctx.tracer;
  MetricSink& m = ctx.metrics;
  const ld::Machine& machine = *setup.machine;
  const std::string dir = "cache-trace";
  std::filesystem::remove_all(dir);
  ld::ThreadPool pool(kThreads);
  ld::LogDiverConfig config = BatchConfig();
  config.bundle_cache_dir = dir;
  const ld::LogDiver diver(machine, config);
  LoadedViews loaded;
  ctx.checks.Require(LoadViews(&pool, &loaded), "cache: load bundle");

  ld::cache::CacheKeys keys;
  {
    ScopedSpan span(&tracer, "cache.keys", op);
    keys = ld::cache::MakeKeys(loaded.views, machine, config);
  }
  auto parsed = diver.ParseLogs(loaded.views, &pool);
  ctx.checks.Require(parsed.ok(), "cache: parse");
  if (!parsed.ok()) return;
  std::vector<std::uint8_t> bytes;
  {
    ScopedSpan span(&tracer, "cache.encode", op);
    bytes = ld::cache::BundleCache::EncodeParsed(*parsed);
  }
  auto result = diver.AnalyzeParsed(std::move(*parsed), &pool);
  ctx.checks.Require(result.ok(), "cache: analyze parsed");
  if (!result.ok()) return;
  const ld::cache::BundleCache cache(dir);
  {
    ScopedSpan span(&tracer, "cache.store", op);
    ctx.checks.Require(cache.Store(keys, bytes, *result).ok(), "cache: store");
  }
  std::error_code ec;
  const auto entry = std::filesystem::file_size(cache.BundlePath(keys.input_fingerprint), ec);
  m.Set("cache.entry_mb", ec ? 0 : static_cast<double>(entry) / 1048576.0, "MB");
  {
    ScopedSpan span(&tracer, "cache.load", op);
    auto hit = cache.Load(keys);
    ctx.checks.Require(hit.ok() && hit->result.has_value(), "cache: full hit");
  }
  ld::cache::CacheKeys retuned = keys;
  retuned.analysis_key = ld::cache::AnalysisKey(machine, RetunedConfig(config));
  {
    ScopedSpan span(&tracer, "cache.load_records", op);
    auto hit = cache.Load(retuned);
    ctx.checks.Require(hit.ok() && !hit->result.has_value(), "cache: records hit");
  }
  m.Set("cache.keys_ms", tracer.TotalMs("cache.keys", op), "ms");
  m.Set("cache.encode_ms", tracer.TotalMs("cache.encode", op), "ms");
  m.Set("cache.store_ms", tracer.TotalMs("cache.store", op), "ms");
  m.Set("cache.load_ms", tracer.TotalMs("cache.load", op), "ms");
  m.Set("cache.load_records_ms", tracer.TotalMs("cache.load_records", op), "ms");
  std::filesystem::remove_all(dir);
}

}  // namespace

// --- workloads ----------------------------------------------------------

void RunBatchWorkload(RunContext& ctx) {
  const BatchSetup setup = TimedSetup(ctx);
  const std::string& fp = ctx.oracle["batch.fp"];
  const std::string& f1 = ctx.oracle["batch.f1"];
  ctx.checks.Require(BatchOp(*setup.diver, fp, f1).ok, "warm-up op");
  std::vector<double> samples;
  const auto deadline = Deadline(ctx);
  do {
    const OpResult r = BatchOp(*setup.diver, fp, f1);
    ctx.checks.Op(r.ok, "batch op report mismatch");
    samples.push_back(r.ms);
  } while (!Expired(deadline));
  SetOpMetrics(ctx.metrics, samples, "bundle -> verified report");
}

void RunRerunWorkload(RunContext& ctx) {
  const BatchSetup setup = TimedSetup(ctx);
  const std::string& fp = ctx.oracle["batch.fp"];
  const std::string& f1 = ctx.oracle["batch.f1"];
  const std::string& retune_fp = ctx.oracle["retune.fp"];
  ctx.checks.Require(BatchOp(*setup.diver, fp, f1).ok, "warm-up op");
  std::vector<double> cold, retune, warm;
  const auto deadline = Deadline(ctx);
  const auto timed = [&ctx](const ld::LogDiver& diver, const std::string& want_fp,
                            const std::string& want_f1, ld::CacheOutcome want,
                            std::vector<double>* out, const char* what) {
    const OpResult r = BatchOp(diver, want_fp, want_f1);
    ctx.checks.Op(r.ok && r.outcome == want, std::string("rerun ") + what);
    out->push_back(r.ms);
  };
  do {
    std::filesystem::remove_all(kCacheDir);
    timed(*setup.cached, fp, f1, ld::CacheOutcome::kMiss, &cold, "cold");
    timed(*setup.retuned, retune_fp, "", ld::CacheOutcome::kRecordsHit, &retune,
          "retune");
    for (int i = 0; i < 4; ++i) {
      timed(*setup.cached, fp, f1, ld::CacheOutcome::kHit, &warm, "warm");
    }
  } while (!Expired(deadline));
  std::filesystem::remove_all(kCacheDir);
  SetOpMetrics(ctx.metrics, warm, "warm (full cache hit) -> verified report");
  ctx.metrics.Set("cold_ms_p50", Percentile(cold, 50), "ms",
                  "empty cache: parse + encode + store, n=" + std::to_string(cold.size()));
  ctx.metrics.Set("retune_ms_p50", Percentile(retune, 50), "ms",
                  "records hit, tail re-run, n=" + std::to_string(retune.size()));
}

void RunFleetWorkload(RunContext& ctx) {
  const ld::ScenarioConfig scenario =
      ShapeConfig(ctx.args.workload, ctx.args.seed);
  std::unique_ptr<ld::Machine> machine;
  std::unique_ptr<ld::fleet::ShardSupervisor> supervisor;
  const auto set_up = [&] {
    machine = std::make_unique<ld::Machine>(ld::MakeMachine(scenario));
    supervisor = std::make_unique<ld::fleet::ShardSupervisor>(*machine,
                                                               ld::LogDiverConfig{});
  };
  ctx.metrics.Set("setup_s", ForkedSetupSeconds(set_up), "s",
                  "median of " + std::to_string(kSetupReps) +
                      " fresh processes' machine+supervisor builds");
  set_up();
  const std::string& want = ctx.oracle["stream.fp"];
  const std::string partials = "partials";
  const auto op = [&]() -> OpResult {
    std::filesystem::remove_all(partials);
    ld::fleet::FleetOptions options;
    options.shard_count = kFleetShards;
    options.partial_dir = partials;
    OpResult r;
    const auto start = Clock::now();
    auto fleet = supervisor->Run(ld::StreamInputs::FromBundleDir(kBundleDir), options);
    if (!fleet.ok()) return r;
    std::ostringstream out;
    out << fleet->coverage.Row() << "\n";
    ld::PrintHeadline(out, fleet->report);
    ld::PrintOutcomeBreakdown(out, fleet->report);
    ld::PrintCategoryTable(out, fleet->report);
    ld::PrintAttributionTable(out, fleet->report);
    r.fp = ld::FingerprintReport(fleet->report);
    r.ms = MsSince(start);
    r.ok = Hex32(r.fp) == want && fleet->coverage.shards_merged == kFleetShards &&
           !fleet->coverage.degraded() && fleet->ingest_status.ok();
    return r;
  };
  ctx.checks.Require(op().ok, "warm-up fleet op");
  std::vector<double> samples;
  const auto deadline = Deadline(ctx);
  do {
    const OpResult r = op();
    ctx.checks.Op(r.ok, "fleet op merged report mismatch");
    samples.push_back(r.ms);
  } while (!Expired(deadline));
  std::filesystem::remove_all(partials);
  SetOpMetrics(ctx.metrics, samples, "4-shard fleet -> verified merged report");
}

void RunTracedSweep(RunContext& ctx) {
  BatchSetup setup = MakeSetup(ShapeConfig(ctx.args.workload, ctx.args.seed));
  const ld::Machine& machine = *setup.machine;
  MetricSink& m = ctx.metrics;
  const std::string& fp = ctx.oracle["batch.fp"];
  const std::string& f1 = ctx.oracle["batch.f1"];

  // Untraced reference ops on the same bundle (first one is warm-up).
  ctx.checks.Require(BatchOp(*setup.diver, fp, f1).ok, "warm-up op");
  std::vector<double> untraced;
  for (int i = 0; i < 3; ++i) {
    const OpResult r = BatchOp(*setup.diver, fp, f1);
    ctx.checks.Op(r.ok, "untraced op");
    untraced.push_back(r.ms);
  }
  const double untraced_ms = Percentile(untraced, 50);

  // op 1: 4 threads, op 2: 1 thread.  From here on the program's own
  // chunk/stage spans are recorded beside the harness's layer spans.
  ld::obs::Tracer::Get().Start();
  const Decomposed d4 = DecomposedOp(ctx.tracer, 1, machine, kThreads);
  const Decomposed d1 = DecomposedOp(ctx.tracer, 2, machine, 1);
  for (const Decomposed* d : {&d4, &d1}) {
    ctx.checks.Op(d->ok && Hex32(d->fp) == fp && d->f1 == f1,
                  "decomposed report differs from the untraced op");
  }
  SetStageRows(ctx, d4, 1, "");
  SetStageRows(ctx, d1, 2, "_t1");
  const char* sources[] = {"torque", "alps", "syslog", "hwerr"};
  for (int i = 0; i < 4; ++i) {
    const std::string src = sources[i];
    m.Set("parse." + src + ".lines", static_cast<double>(d4.stats[i].lines), "count");
    m.Set("parse." + src + ".malformed", static_cast<double>(d4.stats[i].malformed),
          "count");
  }
  m.Set("load.mb", static_cast<double>(d4.load_bytes) / 1048576.0, "MB");
  m.Set("load.lines", static_cast<double>(d4.load_lines), "count");
  m.Set("coalesce.events", static_cast<double>(d4.coalesce.input_events), "count");
  m.Set("coalesce.tuples", static_cast<double>(d4.coalesce.tuples), "count");
  m.Set("coalesce.tuples_per_event",
        d4.coalesce.input_events == 0
            ? 0
            : static_cast<double>(d4.coalesce.tuples) /
                  static_cast<double>(d4.coalesce.input_events),
        "ratio");
  m.Set("reconstruct.runs", static_cast<double>(d4.reconstruct.runs), "count");
  m.Set("reconstruct.duplicates",
        static_cast<double>(d4.reconstruct.duplicate_placements +
                            d4.reconstruct.duplicate_terminations),
        "count");
  m.Set("classify.system_failures", static_cast<double>(d4.system_failures), "count");
  m.Set("classify.unattributed", static_cast<double>(d4.unattributed), "count");
  m.Set("report.kb", static_cast<double>(d4.report_bytes) / 1024.0, "KB");
  m.Set("scoring.gt_load_ms", ctx.tracer.TotalMs("scoring.gt_load", 1), "ms");
  const double coverage = ctx.tracer.ChildCoverage(d4.op_span);
  m.Set("trace.coverage", coverage, "ratio", "top-level spans / traced op wall");
  m.Set("trace.overhead", untraced_ms > 0 ? d4.op_ms / untraced_ms - 1.0 : 0, "ratio",
        "traced op / untraced op - 1");
  ctx.checks.Require(coverage >= 0.95, "span coverage below 95% of the traced op");

  // op 3: the cache layer and its three cycle ops.
  TracedCache(ctx, setup, 3);
  {
    std::filesystem::remove_all(kCacheDir);
    std::uint64_t hits = 0, records_hits = 0, misses = 0, rejected = 0;
    const auto cycle_op = [&](const ld::LogDiver& diver, const std::string& want_fp,
                              const std::string& want_f1, const char* span) {
      ScopedSpan s(&ctx.tracer, span, 3);
      const OpResult r = BatchOp(diver, want_fp, want_f1);
      ctx.checks.Op(r.ok, span);
      hits += r.outcome == ld::CacheOutcome::kHit;
      records_hits += r.outcome == ld::CacheOutcome::kRecordsHit;
      misses += r.outcome == ld::CacheOutcome::kMiss;
      rejected += r.outcome == ld::CacheOutcome::kRejected;
      return r.ms;
    };
    m.Set("cache.cold_ms", cycle_op(*setup.cached, fp, f1, "cache.cold"), "ms");
    m.Set("cache.retune_ms",
          cycle_op(*setup.retuned, ctx.oracle["retune.fp"], "", "cache.retune"), "ms");
    m.Set("cache.warm_ms", cycle_op(*setup.cached, fp, f1, "cache.warm"), "ms");
    m.Set("cache.hits", static_cast<double>(hits), "count");
    m.Set("cache.records_hits", static_cast<double>(records_hits), "count");
    m.Set("cache.misses", static_cast<double>(misses), "count");
    m.Set("cache.rejected", static_cast<double>(rejected), "count");
    ctx.checks.Require(hits == 1 && records_hits == 1 && misses == 1,
                       "cache cycle outcomes");
    std::filesystem::remove_all(kCacheDir);
  }

  // op 4: fleet at 4 shards vs a serial streaming replay of the bundle.
  {
    const ld::StreamInputs inputs = ld::StreamInputs::FromBundleDir(kBundleDir);
    ld::fleet::FleetOptions options;
    options.shard_count = kFleetShards;
    options.partial_dir = "partials-trace";
    std::filesystem::remove_all(options.partial_dir);
    const ld::fleet::ShardSupervisor supervisor(machine, ld::LogDiverConfig{});
    std::optional<ld::fleet::FleetSummary> fleet;
    {
      ScopedSpan s(&ctx.tracer, "fleet", 4);
      auto run = supervisor.Run(inputs, options);
      if (run.ok()) fleet = std::move(*run);
    }
    std::filesystem::remove_all(options.partial_dir);
    ld::StreamingAnalyzer::Summary stream;
    bool stream_ok = false;
    {
      ScopedSpan s(&ctx.tracer, "stream.replay", 4);
      const ld::LogDiverConfig config;
      ld::StreamingAnalyzer analyzer(machine, config);
      stream_ok = ld::ReplayBundle(config, inputs, ld::ReplaySchedule{}, analyzer).ok();
      stream = analyzer.Finalize();
      stream.metrics.ingest = stream.ingest;
    }
    const std::string stream_fp = Hex32(ld::FingerprintReport(stream.metrics));
    ctx.checks.Op(stream_ok, "stream replay");
    ctx.checks.Op(fleet.has_value() &&
                      Hex32(ld::FingerprintReport(fleet->report)) == stream_fp &&
                      fleet->coverage.shards_merged == kFleetShards,
                  "fleet merged report");
    const double fleet_ms = ctx.tracer.TotalMs("fleet", 4);
    const double replay_ms = ctx.tracer.TotalMs("stream.replay", 4);
    m.Set("fleet.ms", fleet_ms, "ms");
    m.Set("stream.replay_ms", replay_ms, "ms", "serial StreamingAnalyzer replay");
    m.Set("fleet.speedup", fleet_ms > 0 ? replay_ms / fleet_ms : 0, "ratio");
    int attempts = 0;
    if (fleet) {
      for (const auto& shard : fleet->shards) attempts += shard.attempts;
    }
    m.Set("fleet.attempts", attempts, "count");
    m.Set("fleet.retries", fleet ? attempts - static_cast<int>(fleet->shards.size()) : 0,
          "count");
    m.Set("fleet.shards_merged", fleet ? fleet->coverage.shards_merged : 0, "count");
    // Batch vs streaming on one bundle: a diagnostic, not a failure.
    m.Set("modes.digest_agree", Hex32(d4.fp) == stream_fp ? 1 : 0, "bool",
          "batch report fingerprint == streaming");
    for (const char* cat : {"machine_check", "gpu_xid", "lustre"}) {
      m.Set(std::string("modes.batch.") + cat,
            static_cast<double>(CategoryTuples(d4.metrics, cat)), "count");
      m.Set(std::string("modes.stream.") + cat,
            static_cast<double>(CategoryTuples(stream.metrics, cat)), "count");
    }
  }

  // op 5: the service layers.
  RunServiceSweep(ctx, machine);
}

}  // namespace perfbench
