#include "logdiver/metrics.hpp"

#include <gtest/gtest.h>

#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

AppRun MakeRun(ApId apid, std::uint32_t nodect, NodeType type, std::int64_t start,
           std::int64_t end) {
  AppRun run;
  run.apid = apid;
  run.nodect = nodect;
  run.node_type = type;
  run.start = TimePoint(start);
  run.end = TimePoint(end);
  run.has_termination = true;
  return run;
}

ClassifiedRun Cls(std::uint32_t idx, AppOutcome outcome,
                  ErrorCategory cause = ErrorCategory::kUnknown) {
  ClassifiedRun cls;
  cls.run_index = idx;
  cls.outcome = outcome;
  cls.cause = cause;
  return cls;
}

// Epoch anchor: 2013-04-01 = 1364774400.
constexpr std::int64_t kT0 = 1364774400;

TEST(Metrics, OutcomeBreakdownSharesAndNodeHours) {
  std::vector<AppRun> runs = {
      MakeRun(1, 10, NodeType::kXE, kT0, kT0 + 3600),       // 10 nh, success
      MakeRun(2, 10, NodeType::kXE, kT0, kT0 + 3600),       // 10 nh, user
      MakeRun(3, 20, NodeType::kXE, kT0, kT0 + 2 * 3600),   // 40 nh, system
      MakeRun(4, 4, NodeType::kXK, kT0, kT0 + 1800),        // 2 nh, walltime
  };
  std::vector<ClassifiedRun> classified = {
      Cls(0, AppOutcome::kSuccess),
      Cls(1, AppOutcome::kUserFailure),
      Cls(2, AppOutcome::kSystemFailure, ErrorCategory::kMemoryUE),
      Cls(3, AppOutcome::kWalltime),
  };
  const MetricsReport report = ComputeMetrics(runs, classified, {});
  EXPECT_EQ(report.total_runs, 4u);
  EXPECT_DOUBLE_EQ(report.total_node_hours, 62.0);
  EXPECT_DOUBLE_EQ(report.system_failure_fraction, 0.25);
  EXPECT_NEAR(report.lost_node_hours_fraction, 40.0 / 62.0, 1e-12);
  ASSERT_EQ(report.outcomes.size(), 4u);
  EXPECT_EQ(report.outcomes[0].outcome, AppOutcome::kSuccess);
  EXPECT_DOUBLE_EQ(report.outcomes[0].runs_share, 0.25);
  EXPECT_EQ(report.outcomes[2].outcome, AppOutcome::kSystemFailure);
  EXPECT_DOUBLE_EQ(report.outcomes[2].node_hours, 40.0);
}

TEST(Metrics, CategoryTableCountsTuplesAndSeverities) {
  ErrorTuple corrected;
  corrected.category = ErrorCategory::kMachineCheck;
  corrected.severity = Severity::kCorrected;
  corrected.count = 12;
  corrected.first = corrected.last = TimePoint(kT0);
  ErrorTuple fatal = corrected;
  fatal.severity = Severity::kFatal;
  fatal.count = 1;

  std::vector<AppRun> runs = {MakeRun(1, 1, NodeType::kXE, kT0, kT0 + 7200)};
  std::vector<ClassifiedRun> classified = {Cls(0, AppOutcome::kSuccess)};
  const MetricsReport report =
      ComputeMetrics(runs, classified, {corrected, fatal});
  ASSERT_EQ(report.categories.size(), 1u);
  EXPECT_EQ(report.categories[0].tuples, 2u);
  EXPECT_EQ(report.categories[0].fatal_tuples, 1u);
  EXPECT_EQ(report.categories[0].raw_events, 13u);
  EXPECT_DOUBLE_EQ(report.categories[0].fatal_mtbe_hours, 2.0);
}

TEST(Metrics, AttributionSplitsByPartition) {
  std::vector<AppRun> runs = {
      MakeRun(1, 1, NodeType::kXE, kT0, kT0 + 100),
      MakeRun(2, 1, NodeType::kXK, kT0, kT0 + 100),
      MakeRun(3, 1, NodeType::kXK, kT0, kT0 + 100),
  };
  std::vector<ClassifiedRun> classified = {
      Cls(0, AppOutcome::kSystemFailure, ErrorCategory::kLustre),
      Cls(1, AppOutcome::kSystemFailure, ErrorCategory::kGpuDbe),
      Cls(2, AppOutcome::kSystemFailure, ErrorCategory::kGpuDbe),
  };
  const MetricsReport report = ComputeMetrics(runs, classified, {});
  ASSERT_EQ(report.attribution.size(), 2u);
  // Sorted by total, descending: gpu_dbe (2) then lustre (1).
  EXPECT_EQ(report.attribution[0].cause, ErrorCategory::kGpuDbe);
  EXPECT_EQ(report.attribution[0].xk_failures, 2u);
  EXPECT_EQ(report.attribution[0].xe_failures, 0u);
  EXPECT_EQ(report.attribution[1].cause, ErrorCategory::kLustre);
  EXPECT_EQ(report.attribution[1].xe_failures, 1u);
}

TEST(Metrics, ScaleCurveBucketsRunsAndFailures) {
  std::vector<AppRun> runs;
  std::vector<ClassifiedRun> classified;
  // 100 single-node runs with 5 failures; 10 full-scale with 4 failures.
  for (int i = 0; i < 100; ++i) {
    runs.push_back(MakeRun(static_cast<ApId>(i), 1, NodeType::kXE, kT0, kT0 + 60));
    classified.push_back(Cls(static_cast<std::uint32_t>(i),
                             i < 5 ? AppOutcome::kSystemFailure
                                   : AppOutcome::kSuccess,
                             i < 5 ? ErrorCategory::kLustre
                                   : ErrorCategory::kUnknown));
  }
  for (int i = 0; i < 10; ++i) {
    runs.push_back(
        MakeRun(static_cast<ApId>(1000 + i), 20000, NodeType::kXE, kT0, kT0 + 60));
    classified.push_back(Cls(static_cast<std::uint32_t>(100 + i),
                             i < 4 ? AppOutcome::kSystemFailure
                                   : AppOutcome::kSuccess,
                             i < 4 ? ErrorCategory::kLustre
                                   : ErrorCategory::kUnknown));
  }
  const MetricsReport report = ComputeMetrics(runs, classified, {});
  ASSERT_FALSE(report.xe_scale.empty());
  EXPECT_EQ(report.xe_scale.front().runs, 100u);
  EXPECT_EQ(report.xe_scale.front().system_failures, 5u);
  EXPECT_NEAR(report.xe_scale.front().failure_probability.point, 0.05, 1e-9);
  EXPECT_EQ(report.xe_scale.back().runs, 10u);
  EXPECT_EQ(report.xe_scale.back().system_failures, 4u);
}

TEST(Metrics, UnknownOutcomesExcludedFromScaleCurve) {
  std::vector<AppRun> runs = {MakeRun(1, 1, NodeType::kXE, kT0, kT0 + 60)};
  std::vector<ClassifiedRun> classified = {Cls(0, AppOutcome::kUnknown)};
  const MetricsReport report = ComputeMetrics(runs, classified, {});
  EXPECT_EQ(report.xe_scale.front().runs, 0u);
}

TEST(Metrics, MonthlySeriesGroupsByEndMonth) {
  std::vector<AppRun> runs = {
      MakeRun(1, 1, NodeType::kXE, kT0, kT0 + 3600),  // April 2013
      MakeRun(2, 1, NodeType::kXE, kT0 + 35 * 86400, kT0 + 35 * 86400 + 3600),
  };
  std::vector<ClassifiedRun> classified = {
      Cls(0, AppOutcome::kSystemFailure, ErrorCategory::kLustre),
      Cls(1, AppOutcome::kSuccess),
  };
  const MetricsReport report = ComputeMetrics(runs, classified, {});
  ASSERT_EQ(report.monthly.size(), 2u);
  EXPECT_EQ(report.monthly[0].month, 4);
  EXPECT_EQ(report.monthly[0].system_failures, 1u);
  EXPECT_GT(report.monthly[0].mtti_hours, 0.0);
  EXPECT_EQ(report.monthly[1].month, 5);
  EXPECT_EQ(report.monthly[1].system_failures, 0u);
  EXPECT_EQ(report.monthly[1].mtti_hours, 0.0);
}

TEST(Metrics, DetectionGapSplitsAttribution) {
  std::vector<AppRun> runs = {
      MakeRun(1, 1, NodeType::kXE, kT0, kT0 + 60),
      MakeRun(2, 1, NodeType::kXK, kT0, kT0 + 60),
      MakeRun(3, 1, NodeType::kXK, kT0, kT0 + 60),
  };
  std::vector<ClassifiedRun> classified = {
      Cls(0, AppOutcome::kSystemFailure, ErrorCategory::kMemoryUE),
      Cls(1, AppOutcome::kSystemFailure, ErrorCategory::kUnknown),
      Cls(2, AppOutcome::kSystemFailure, ErrorCategory::kGpuDbe),
  };
  const MetricsReport report = ComputeMetrics(runs, classified, {});
  ASSERT_EQ(report.detection_gap.size(), 2u);
  const DetectionGapRow& xe = report.detection_gap[0];
  const DetectionGapRow& xk = report.detection_gap[1];
  EXPECT_EQ(xe.type, NodeType::kXE);
  EXPECT_EQ(xe.unattributed, 0u);
  EXPECT_EQ(xk.system_failures, 2u);
  EXPECT_EQ(xk.unattributed, 1u);
  EXPECT_DOUBLE_EQ(xk.unattributed_share, 0.5);
}

TEST(Metrics, AvailabilityFromIncidentWindows) {
  // Two overlapping incidents (1h window merged) + one disjoint (30min)
  // over a 10-hour observed span.
  ErrorTuple a;
  a.category = ErrorCategory::kLustre;
  a.severity = Severity::kFatal;
  a.scope = LocScope::kSystem;
  a.first = a.last = TimePoint(kT0);
  a.recovered = TimePoint(kT0 + 3600);
  ErrorTuple b = a;
  b.first = b.last = TimePoint(kT0 + 1800);
  b.recovered = TimePoint(kT0 + 3600);  // inside a's window
  ErrorTuple c = a;
  c.first = c.last = TimePoint(kT0 + 7200);
  c.recovered = TimePoint(kT0 + 9000);

  std::vector<AppRun> runs = {MakeRun(1, 1, NodeType::kXE, kT0, kT0 + 36000)};
  std::vector<ClassifiedRun> classified = {Cls(0, AppOutcome::kSuccess)};
  const MetricsReport report = ComputeMetrics(runs, classified, {a, b, c});
  EXPECT_EQ(report.availability.incidents, 3u);
  // Merged downtime: 3600s + 1800s = 1.5h (+2s of ImpactWindow padding).
  EXPECT_NEAR(report.availability.downtime_hours, 1.5, 0.01);
  EXPECT_NEAR(report.availability.availability, 1.0 - 1.5 / 10.0, 0.001);
}

TEST(Metrics, AvailabilityIgnoresNodeScopeAndNonFatal) {
  ErrorTuple node_fatal;
  node_fatal.category = ErrorCategory::kMemoryUE;
  node_fatal.severity = Severity::kFatal;
  node_fatal.scope = LocScope::kNode;
  node_fatal.first = node_fatal.last = TimePoint(kT0);
  std::vector<AppRun> runs = {MakeRun(1, 1, NodeType::kXE, kT0, kT0 + 3600)};
  std::vector<ClassifiedRun> classified = {Cls(0, AppOutcome::kSuccess)};
  const MetricsReport report = ComputeMetrics(runs, classified, {node_fatal});
  EXPECT_EQ(report.availability.incidents, 0u);
  EXPECT_DOUBLE_EQ(report.availability.availability, 1.0);
}

TEST(Metrics, QueueWaitsDeduplicatePerJob) {
  // Two runs of the same job must count its wait once.
  AppRun a = MakeRun(1, 4, NodeType::kXE, kT0 + 3600, kT0 + 7200);
  a.jobid = 7;
  a.job_submit = TimePoint(kT0);
  a.job_start = TimePoint(kT0 + 3600);  // 1h wait
  AppRun b = a;
  b.apid = 2;
  AppRun c = MakeRun(3, 600, NodeType::kXE, kT0 + 1800, kT0 + 3600);
  c.jobid = 8;
  c.job_submit = TimePoint(kT0);
  c.job_start = TimePoint(kT0 + 1800);  // 0.5h wait
  std::vector<AppRun> runs = {a, b, c};
  std::vector<ClassifiedRun> classified = {Cls(0, AppOutcome::kSuccess),
                                           Cls(1, AppOutcome::kSuccess),
                                           Cls(2, AppOutcome::kSuccess)};
  const MetricsReport report = ComputeMetrics(runs, classified, {});
  ASSERT_EQ(report.queue_waits.size(), 2u);
  // Band 2-8 holds job 7 exactly once.
  EXPECT_EQ(report.queue_waits[0].lo, 2u);
  EXPECT_EQ(report.queue_waits[0].jobs, 1u);
  EXPECT_DOUBLE_EQ(report.queue_waits[0].mean_wait_hours, 1.0);
  // Band 513-4096 holds job 8.
  EXPECT_EQ(report.queue_waits[1].lo, 513u);
  EXPECT_DOUBLE_EQ(report.queue_waits[1].mean_wait_hours, 0.5);
}

TEST(Metrics, EmptyInputsAreSafe) {
  const MetricsReport report = ComputeMetrics({}, {}, {});
  EXPECT_EQ(report.total_runs, 0u);
  EXPECT_EQ(report.system_failure_fraction, 0.0);
  EXPECT_TRUE(report.outcomes.empty());
  EXPECT_TRUE(report.monthly.empty());
}

TEST(Metrics, CustomScaleBuckets) {
  MetricsConfig config;
  config.xe_scale_buckets = {{1, 10}, {11, 100}};
  std::vector<AppRun> runs = {MakeRun(1, 50, NodeType::kXE, kT0, kT0 + 60)};
  std::vector<ClassifiedRun> classified = {Cls(0, AppOutcome::kSuccess)};
  const MetricsReport report = ComputeMetrics(runs, classified, {}, config);
  ASSERT_EQ(report.xe_scale.size(), 2u);
  EXPECT_EQ(report.xe_scale[1].runs, 1u);
}

TEST(Metrics, LoadStateRejectsLyingJobCountWithoutThrowing) {
  // An empty accumulator's state ends with the seen-jobs count (u64),
  // the failed-jobs count (u64) and the queue-wait count (u32).  A
  // seen-jobs count of 2^62, which no payload could hold, must fail the
  // load instead of throwing out of the set's reserve().
  SnapshotWriter w;
  MetricsAccumulator().SaveState(w);
  std::vector<std::uint8_t> bytes = w.TakeBytes();
  ASSERT_GE(bytes.size(), 20u);
  const std::size_t seen_count = bytes.size() - 20;
  ASSERT_EQ(bytes[seen_count], 0u);
  bytes[seen_count + 7] = 0x40;  // little-endian: bit 62
  SnapshotReader r(bytes);
  MetricsAccumulator restored;
  EXPECT_NO_THROW(restored.LoadState(r));
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace ld
