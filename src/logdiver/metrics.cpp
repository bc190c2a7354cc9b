#include "logdiver/metrics.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

constexpr AppOutcome kOutcomeOrder[] = {
    AppOutcome::kSuccess, AppOutcome::kUserFailure, AppOutcome::kSystemFailure,
    AppOutcome::kWalltime, AppOutcome::kUnknown};

const std::vector<std::pair<std::uint32_t, std::uint32_t>> kWaitBands = {
    {1, 1}, {2, 8}, {9, 64}, {65, 512}, {513, 4096}, {4097, 1u << 30}};

double SecondsToHours(std::int64_t node_seconds) {
  return static_cast<double>(node_seconds) / 3600.0;
}

}  // namespace

std::vector<std::pair<std::uint32_t, std::uint32_t>> DefaultXeScaleBuckets() {
  return {{1, 1},        {2, 8},        {9, 64},        {65, 512},
          {513, 2048},   {2049, 8192},  {8193, 16384},  {16385, 22640}};
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> DefaultXkScaleBuckets() {
  return {{1, 1},       {2, 8},       {9, 64},      {65, 256},
          {257, 1024},  {1025, 2048}, {2049, 3500}, {3501, 4224}};
}

MetricsAccumulator::MetricsAccumulator(MetricsConfig config)
    : config_(std::move(config)) {
  auto init_scale = [](std::vector<ScalePoint>& points,
                       const std::vector<std::pair<std::uint32_t,
                                                   std::uint32_t>>& buckets) {
    points.clear();
    for (const auto& [lo, hi] : buckets) {
      ScalePoint p;
      p.lo = lo;
      p.hi = hi;
      points.push_back(p);
    }
  };
  init_scale(xe_scale_, config_.xe_scale_buckets.empty()
                            ? DefaultXeScaleBuckets()
                            : config_.xe_scale_buckets);
  init_scale(xk_scale_, config_.xk_scale_buckets.empty()
                            ? DefaultXkScaleBuckets()
                            : config_.xk_scale_buckets);
  // Sized for a realistic campaign's job population; AddRun then never
  // rehashes mid-stream.
  seen_jobs_.reserve(1024);
  failed_jobs_.reserve(256);
}

void MetricsAccumulator::AddRun(const AppRun& run, const ClassifiedRun& cls) {
  ++total_runs_;
  if (!have_span_) {
    span_lo_ = run.start;
    span_hi_ = run.end;
    have_span_ = true;
  } else {
    span_lo_ = std::min(span_lo_, run.start);
    span_hi_ = std::max(span_hi_, run.end);
  }

  // Outcomes + headline.  Node-time is summed in integer node-seconds
  // (lossless: logs are second-granular) so totals are independent of
  // accumulation and merge order.
  OutcomeTally& orow = outcome_rows_[cls.outcome];
  ++orow.runs;
  const std::int64_t ns = run.NodeSeconds();
  orow.node_seconds += ns;
  total_node_seconds_ += ns;
  if (cls.outcome == AppOutcome::kSystemFailure) {
    ++system_failures_;
    lost_node_seconds_ += ns;
  }

  // Scale curves (unknown outcomes excluded).
  if (cls.outcome != AppOutcome::kUnknown) {
    auto& points = run.node_type == NodeType::kXK ? xk_scale_ : xe_scale_;
    for (ScalePoint& p : points) {
      if (run.nodect >= p.lo && run.nodect <= p.hi) {
        ++p.runs;
        if (cls.outcome == AppOutcome::kSystemFailure) ++p.system_failures;
        break;
      }
    }
  }

  // Attribution by partition.
  if (cls.outcome == AppOutcome::kSystemFailure) {
    AttributionRow& arow = attr_rows_[cls.cause];
    arow.cause = cls.cause;
    if (run.node_type == NodeType::kXK) {
      ++arow.xk_failures;
    } else {
      ++arow.xe_failures;
    }
    DetectionGapRow& gap =
        run.node_type == NodeType::kXK ? xk_gap_ : xe_gap_;
    ++gap.system_failures;
    if (cls.cause == ErrorCategory::kUnknown) {
      ++gap.unattributed;
    } else {
      ++gap.attributed;
    }
  }

  // Monthly series.
  const CalendarTime c = ToCalendar(run.end);
  MonthlyTally& mp = monthly_[{c.year, c.month}];
  ++mp.runs;
  mp.node_seconds += ns;
  if (cls.outcome == AppOutcome::kSystemFailure) {
    ++mp.system_failures;
    mp.lost_node_seconds += ns;
  }

  if (cls.outcome == AppOutcome::kSystemFailure) {
    failed_jobs_.insert(run.jobid);
  }

  // Queue waits, once per job: the job's lowest-apid run with a
  // submit->start record wins, so the winner (and hence the sample set)
  // does not depend on the order runs arrive or which shard saw them.
  if (run.job_start >= run.job_submit) {
    seen_jobs_.insert(run.jobid);
    for (std::size_t b = 0; b < kWaitBands.size(); ++b) {
      if (run.nodect >= kWaitBands[b].first &&
          run.nodect <= kWaitBands[b].second) {
        WaitSample sample{run.apid, static_cast<std::uint32_t>(b),
                          run.queue_wait()};
        auto [it, inserted] = waits_.emplace(run.jobid, sample);
        if (!inserted && sample.apid < it->second.apid) it->second = sample;
        break;
      }
    }
  }
}

void MetricsAccumulator::AddTuple(const ErrorTuple& tuple) {
  CategoryRow& row = cat_rows_[tuple.category];
  row.category = tuple.category;
  ++row.tuples;
  row.raw_events += tuple.count;
  if (tuple.severity == Severity::kFatal) ++row.fatal_tuples;

  if (tuple.scope == LocScope::kSystem && tuple.severity == Severity::kFatal) {
    ++incidents_;
    downtime_.Add(tuple.ImpactWindow());
  }
}

MetricsReport MetricsAccumulator::Report() const {
  MetricsReport report;
  report.total_runs = total_runs_;
  const double total_node_hours = SecondsToHours(total_node_seconds_);
  report.total_node_hours = total_node_hours;
  const double span_hours = have_span_ ? (span_hi_ - span_lo_).hours() : 0.0;

  report.outcomes.reserve(outcome_rows_.size());
  report.categories.reserve(cat_rows_.size());
  report.attribution.reserve(attr_rows_.size());
  report.monthly.reserve(monthly_.size());
  report.queue_waits.reserve(kWaitBands.size());
  for (AppOutcome o : kOutcomeOrder) {
    const auto it = outcome_rows_.find(o);
    if (it == outcome_rows_.end()) continue;
    OutcomeRow row;
    row.outcome = o;
    row.runs = it->second.runs;
    row.node_hours = SecondsToHours(it->second.node_seconds);
    row.runs_share = total_runs_ ? static_cast<double>(row.runs) /
                                       static_cast<double>(total_runs_)
                                 : 0.0;
    row.node_hours_share =
        total_node_hours > 0.0 ? row.node_hours / total_node_hours : 0.0;
    report.outcomes.push_back(row);
  }
  report.system_failure_fraction =
      total_runs_ ? static_cast<double>(system_failures_) /
                        static_cast<double>(total_runs_)
                  : 0.0;
  report.lost_node_hours_fraction =
      total_node_seconds_ > 0
          ? static_cast<double>(lost_node_seconds_) /
                static_cast<double>(total_node_seconds_)
          : 0.0;
  report.overall_mtti_hours =
      system_failures_ > 0
          ? span_hours / static_cast<double>(system_failures_)
          : 0.0;

  for (const auto& [cat, row] : cat_rows_) {
    CategoryRow out = row;
    out.fatal_mtbe_hours =
        out.fatal_tuples > 0
            ? span_hours / static_cast<double>(out.fatal_tuples)
            : 0.0;
    report.categories.push_back(out);
  }

  report.availability.incidents = incidents_;
  report.availability.downtime_hours = downtime_.TotalLength().hours();
  if (span_hours > 0.0) {
    report.availability.availability = std::max(
        0.0, 1.0 - report.availability.downtime_hours / span_hours);
  }

  for (const auto& [cat, row] : attr_rows_) report.attribution.push_back(row);
  std::sort(report.attribution.begin(), report.attribution.end(),
            [](const AttributionRow& a, const AttributionRow& b) {
              return a.xe_failures + a.xk_failures >
                     b.xe_failures + b.xk_failures;
            });

  report.xe_scale = xe_scale_;
  report.xk_scale = xk_scale_;
  for (auto* points : {&report.xe_scale, &report.xk_scale}) {
    for (ScalePoint& p : *points) {
      p.failure_probability = WilsonInterval(p.system_failures, p.runs);
    }
  }

  for (const auto& [ym, p] : monthly_) {
    MonthlyPoint out;
    out.year = ym.first;
    out.month = ym.second;
    out.runs = p.runs;
    out.system_failures = p.system_failures;
    out.node_hours = SecondsToHours(p.node_seconds);
    out.lost_node_hours = SecondsToHours(p.lost_node_seconds);
    const TimePoint month_start = TimePoint::FromCalendar(out.year, out.month, 1);
    const TimePoint next =
        out.month == 12 ? TimePoint::FromCalendar(out.year + 1, 1, 1)
                        : TimePoint::FromCalendar(out.year, out.month + 1, 1);
    const double hours = (next - month_start).hours();
    out.mtti_hours = p.system_failures > 0
                         ? hours / static_cast<double>(p.system_failures)
                         : 0.0;
    report.monthly.push_back(out);
  }

  report.detection_gap = {xe_gap_, xk_gap_};
  for (DetectionGapRow& row : report.detection_gap) {
    row.unattributed_share =
        row.system_failures > 0
            ? static_cast<double>(row.unattributed) /
                  static_cast<double>(row.system_failures)
            : 0.0;
  }

  // Regroup the per-job winners into bands.  Iterating the jobid-keyed
  // map gives a canonical order, so the per-band sums and quantile
  // inputs are identical however the samples were accumulated.
  std::vector<std::vector<double>> band_samples(kWaitBands.size());
  for (const auto& [jobid, sample] : waits_) {
    band_samples[sample.band].push_back(sample.wait.hours());
  }
  for (std::size_t b = 0; b < kWaitBands.size(); ++b) {
    const std::vector<double>& samples = band_samples[b];
    if (samples.empty()) continue;
    QueueWaitRow row;
    row.lo = kWaitBands[b].first;
    row.hi = kWaitBands[b].second;
    row.jobs = samples.size();
    double sum = 0.0;
    for (double w : samples) sum += w;
    row.mean_wait_hours = sum / static_cast<double>(samples.size());
    row.p95_wait_hours = Quantile(samples, 0.95);
    report.queue_waits.push_back(row);
  }
  report.job_impact.jobs = seen_jobs_.size();
  report.job_impact.jobs_with_system_failure = failed_jobs_.size();
  report.job_impact.fraction =
      report.job_impact.jobs
          ? static_cast<double>(report.job_impact.jobs_with_system_failure) /
                static_cast<double>(report.job_impact.jobs)
          : 0.0;
  return report;
}

void MetricsAccumulator::MergeFrom(const MetricsAccumulator& other) {
  LD_CHECK(xe_scale_.size() == other.xe_scale_.size() &&
               xk_scale_.size() == other.xk_scale_.size(),
           "MergeFrom requires accumulators with the same scale buckets");

  total_runs_ += other.total_runs_;
  total_node_seconds_ += other.total_node_seconds_;
  system_failures_ += other.system_failures_;
  lost_node_seconds_ += other.lost_node_seconds_;
  if (other.have_span_) {
    if (!have_span_) {
      span_lo_ = other.span_lo_;
      span_hi_ = other.span_hi_;
      have_span_ = true;
    } else {
      span_lo_ = std::min(span_lo_, other.span_lo_);
      span_hi_ = std::max(span_hi_, other.span_hi_);
    }
  }

  for (const auto& [outcome, tally] : other.outcome_rows_) {
    OutcomeTally& mine = outcome_rows_[outcome];
    mine.runs += tally.runs;
    mine.node_seconds += tally.node_seconds;
  }
  for (const auto& [category, row] : other.cat_rows_) {
    CategoryRow& mine = cat_rows_[category];
    mine.category = category;
    mine.tuples += row.tuples;
    mine.fatal_tuples += row.fatal_tuples;
    mine.raw_events += row.raw_events;
  }
  for (const auto& [cause, row] : other.attr_rows_) {
    AttributionRow& mine = attr_rows_[cause];
    mine.cause = cause;
    mine.xe_failures += row.xe_failures;
    mine.xk_failures += row.xk_failures;
  }
  for (auto [mine, theirs] : {std::pair{&xe_scale_, &other.xe_scale_},
                              std::pair{&xk_scale_, &other.xk_scale_}}) {
    for (std::size_t i = 0; i < mine->size(); ++i) {
      LD_CHECK((*mine)[i].lo == (*theirs)[i].lo &&
                   (*mine)[i].hi == (*theirs)[i].hi,
               "MergeFrom requires accumulators with the same scale buckets");
      (*mine)[i].runs += (*theirs)[i].runs;
      (*mine)[i].system_failures += (*theirs)[i].system_failures;
    }
  }
  for (const auto& [ym, tally] : other.monthly_) {
    MonthlyTally& mine = monthly_[ym];
    mine.runs += tally.runs;
    mine.system_failures += tally.system_failures;
    mine.node_seconds += tally.node_seconds;
    mine.lost_node_seconds += tally.lost_node_seconds;
  }
  for (auto [mine, theirs] : {std::pair{&xe_gap_, &other.xe_gap_},
                              std::pair{&xk_gap_, &other.xk_gap_}}) {
    mine->system_failures += theirs->system_failures;
    mine->attributed += theirs->attributed;
    mine->unattributed += theirs->unattributed;
  }
  incidents_ += other.incidents_;
  for (const Interval& iv : other.downtime_.intervals()) downtime_.Add(iv);
  seen_jobs_.insert(other.seen_jobs_.begin(), other.seen_jobs_.end());
  failed_jobs_.insert(other.failed_jobs_.begin(), other.failed_jobs_.end());
  for (const auto& [jobid, sample] : other.waits_) {
    auto [it, inserted] = waits_.emplace(jobid, sample);
    if (!inserted && sample.apid < it->second.apid) it->second = sample;
  }
}

void MetricsAccumulator::SaveState(SnapshotWriter& w) const {
  w.U64(total_runs_);
  w.I64(total_node_seconds_);
  w.U64(system_failures_);
  w.I64(lost_node_seconds_);
  w.Time(span_lo_);
  w.Time(span_hi_);
  w.Bool(have_span_);

  w.U32(static_cast<std::uint32_t>(outcome_rows_.size()));
  for (const auto& [outcome, row] : outcome_rows_) {
    w.U8(static_cast<std::uint8_t>(outcome));
    w.U64(row.runs);
    w.I64(row.node_seconds);
  }

  w.U32(static_cast<std::uint32_t>(cat_rows_.size()));
  for (const auto& [category, row] : cat_rows_) {
    w.U8(static_cast<std::uint8_t>(category));
    w.U8(static_cast<std::uint8_t>(row.category));
    w.U64(row.tuples);
    w.U64(row.fatal_tuples);
    w.U64(row.raw_events);
  }

  w.U32(static_cast<std::uint32_t>(attr_rows_.size()));
  for (const auto& [cause, row] : attr_rows_) {
    w.U8(static_cast<std::uint8_t>(cause));
    w.U8(static_cast<std::uint8_t>(row.cause));
    w.U64(row.xe_failures);
    w.U64(row.xk_failures);
  }

  for (const auto* scale : {&xe_scale_, &xk_scale_}) {
    w.U32(static_cast<std::uint32_t>(scale->size()));
    for (const ScalePoint& p : *scale) {
      w.U32(p.lo);
      w.U32(p.hi);
      w.U64(p.runs);
      w.U64(p.system_failures);
    }
  }

  w.U32(static_cast<std::uint32_t>(monthly_.size()));
  for (const auto& [ym, p] : monthly_) {
    w.I32(ym.first);
    w.I32(ym.second);
    w.U64(p.runs);
    w.U64(p.system_failures);
    w.I64(p.node_seconds);
    w.I64(p.lost_node_seconds);
  }

  for (const DetectionGapRow* gap : {&xe_gap_, &xk_gap_}) {
    w.U8(static_cast<std::uint8_t>(gap->type));
    w.U64(gap->system_failures);
    w.U64(gap->attributed);
    w.U64(gap->unattributed);
  }

  w.U64(incidents_);
  w.U32(static_cast<std::uint32_t>(downtime_.intervals().size()));
  for (const Interval& iv : downtime_.intervals()) {
    w.Time(iv.start);
    w.Time(iv.end);
  }

  // Sorted ids: the sets are unordered in memory, the bytes must not be.
  for (const std::unordered_set<JobId>* jobs : {&seen_jobs_, &failed_jobs_}) {
    std::vector<JobId> sorted(jobs->begin(), jobs->end());
    std::sort(sorted.begin(), sorted.end());
    w.U64(sorted.size());
    for (JobId id : sorted) w.U64(id);
  }

  // Per-job winners in jobid order (the map's iteration order).
  w.U32(static_cast<std::uint32_t>(waits_.size()));
  for (const auto& [jobid, sample] : waits_) {
    w.U64(jobid);
    w.U64(sample.apid);
    w.U32(sample.band);
    w.I64(sample.wait.seconds());
  }
}

void MetricsAccumulator::LoadState(SnapshotReader& r) {
  total_runs_ = r.U64();
  total_node_seconds_ = r.I64();
  system_failures_ = r.U64();
  lost_node_seconds_ = r.I64();
  span_lo_ = r.Time();
  span_hi_ = r.Time();
  have_span_ = r.Bool();

  outcome_rows_.clear();
  const std::uint32_t outcomes = r.U32();
  for (std::uint32_t i = 0; i < outcomes && r.ok(); ++i) {
    const auto key = static_cast<AppOutcome>(r.U8());
    OutcomeTally row;
    row.runs = r.U64();
    row.node_seconds = r.I64();
    outcome_rows_.emplace(key, row);
  }

  cat_rows_.clear();
  const std::uint32_t cats = r.U32();
  for (std::uint32_t i = 0; i < cats && r.ok(); ++i) {
    const auto key = static_cast<ErrorCategory>(r.U8());
    CategoryRow row;
    row.category = static_cast<ErrorCategory>(r.U8());
    row.tuples = r.U64();
    row.fatal_tuples = r.U64();
    row.raw_events = r.U64();
    cat_rows_.emplace(key, row);
  }

  attr_rows_.clear();
  const std::uint32_t attrs = r.U32();
  for (std::uint32_t i = 0; i < attrs && r.ok(); ++i) {
    const auto key = static_cast<ErrorCategory>(r.U8());
    AttributionRow row;
    row.cause = static_cast<ErrorCategory>(r.U8());
    row.xe_failures = r.U64();
    row.xk_failures = r.U64();
    attr_rows_.emplace(key, row);
  }

  for (auto* scale : {&xe_scale_, &xk_scale_}) {
    scale->clear();
    const std::uint32_t points = r.U32();
    // lo, hi (u32) + runs, system_failures (u64) per point.
    if (r.CheckCount(points, 24)) scale->reserve(points);
    for (std::uint32_t i = 0; i < points && r.ok(); ++i) {
      ScalePoint p;
      p.lo = r.U32();
      p.hi = r.U32();
      p.runs = r.U64();
      p.system_failures = r.U64();
      scale->push_back(p);
    }
  }

  monthly_.clear();
  const std::uint32_t months = r.U32();
  for (std::uint32_t i = 0; i < months && r.ok(); ++i) {
    const int key_year = r.I32();
    const int key_month = r.I32();
    MonthlyTally p;
    p.runs = r.U64();
    p.system_failures = r.U64();
    p.node_seconds = r.I64();
    p.lost_node_seconds = r.I64();
    monthly_.emplace(std::make_pair(key_year, key_month), p);
  }

  for (DetectionGapRow* gap : {&xe_gap_, &xk_gap_}) {
    gap->type = static_cast<NodeType>(r.U8());
    gap->system_failures = r.U64();
    gap->attributed = r.U64();
    gap->unattributed = r.U64();
  }

  incidents_ = r.U64();
  downtime_ = IntervalSet();
  const std::uint32_t intervals = r.U32();
  for (std::uint32_t i = 0; i < intervals && r.ok(); ++i) {
    Interval iv;
    iv.start = r.Time();
    iv.end = r.Time();
    downtime_.Add(iv);
  }

  for (std::unordered_set<JobId>* jobs : {&seen_jobs_, &failed_jobs_}) {
    jobs->clear();
    const std::uint64_t count = r.U64();
    if (r.CheckCount(count, sizeof(JobId))) jobs->reserve(count);
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      jobs->insert(r.U64());
    }
  }

  waits_.clear();
  const std::uint32_t jobs = r.U32();
  for (std::uint32_t i = 0; i < jobs && r.ok(); ++i) {
    const JobId jobid = r.U64();
    WaitSample sample;
    sample.apid = r.U64();
    sample.band = r.U32();
    sample.wait = Duration(r.I64());
    if (sample.band >= kWaitBands.size()) {
      r.Fail("queue-wait band out of range");
      return;
    }
    waits_.emplace(jobid, sample);
  }
}

MetricsReport ComputeMetrics(const std::vector<AppRun>& runs,
                             const std::vector<ClassifiedRun>& classified,
                             const std::vector<ErrorTuple>& tuples,
                             const MetricsConfig& config) {
  MetricsAccumulator acc(config);
  for (const ClassifiedRun& cls : classified) {
    acc.AddRun(runs[cls.run_index], cls);
  }
  for (const ErrorTuple& tuple : tuples) acc.AddTuple(tuple);
  return acc.Report();
}

}  // namespace ld
