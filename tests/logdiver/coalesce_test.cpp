#include "logdiver/coalesce.hpp"

#include <gtest/gtest.h>

namespace ld {
namespace {

ErrorRecord Rec(std::int64_t t, ErrorCategory cat, Severity sev,
                LocScope scope, std::string loc,
                LogSource src = LogSource::kSyslog) {
  ErrorRecord rec;
  rec.time = TimePoint(t);
  rec.category = cat;
  rec.severity = sev;
  rec.scope = scope;
  rec.location = Intern(loc);
  rec.source = src;
  return rec;
}

class CoalesceTest : public ::testing::Test {
 protected:
  CoalesceTest() : machine_(Machine::Testbed(96, 24)) {
    node0_ = machine_.node(0).cname.ToString();
    node1_ = machine_.node(1).cname.ToString();
  }
  Machine machine_;
  CoalesceConfig config_;
  std::string node0_;
  std::string node1_;
};

TEST_F(CoalesceTest, MergesBurstOnSameNode) {
  std::vector<ErrorRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(Rec(1000 + i * 10, ErrorCategory::kMachineCheck,
                          Severity::kCorrected, LocScope::kNode, node0_));
  }
  CoalesceStats stats;
  const auto tuples = CoalesceEvents(machine_, records, config_, &stats);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].count, 5u);
  EXPECT_EQ(tuples[0].first, TimePoint(1000));
  EXPECT_EQ(tuples[0].last, TimePoint(1040));
  EXPECT_EQ(stats.input_events, 5u);
  EXPECT_EQ(stats.tuples, 1u);
}

TEST_F(CoalesceTest, WindowGapSplitsTuples) {
  std::vector<ErrorRecord> records = {
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_),
      Rec(1000 + 61, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_),  // beyond the 60s window
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST_F(CoalesceTest, DifferentNodesStaySeparate) {
  std::vector<ErrorRecord> records = {
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node0_),
      Rec(1001, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node1_),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST_F(CoalesceTest, DifferentCategoriesStaySeparate) {
  std::vector<ErrorRecord> records = {
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node0_),
      Rec(1001, ErrorCategory::kMemoryUE, Severity::kFatal, LocScope::kNode,
          node0_),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST_F(CoalesceTest, CrossSourceDedupAndSeverityMax) {
  std::vector<ErrorRecord> records = {
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_, LogSource::kSyslog),
      Rec(1002, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node0_, LogSource::kHwerr),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].severity, Severity::kFatal);
  EXPECT_TRUE(tuples[0].from_syslog);
  EXPECT_TRUE(tuples[0].from_hwerr);
}

TEST_F(CoalesceTest, UnsortedInputHandled) {
  std::vector<ErrorRecord> records = {
      Rec(1040, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_),
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kCorrected,
          LocScope::kNode, node0_),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].count, 2u);
}

TEST_F(CoalesceTest, ResolvesNodeLocation) {
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kNodeHeartbeat, Severity::kFatal,
           LocScope::kNode, node0_)},
      config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].nodes, std::vector<NodeIndex>{0});
}

TEST_F(CoalesceTest, ResolvesBladeLocation) {
  const std::string blade = machine_.node(0).cname.BladePrefix();
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kBladeFault, Severity::kFatal, LocScope::kBlade,
           blade)},
      config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].nodes.size(), 4u);
}

TEST_F(CoalesceTest, ResolvesGeminiLocation) {
  const std::string gemini = machine_.node(2).cname.BladePrefix() + "g1";
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kGeminiLink, Severity::kFatal, LocScope::kGemini,
           gemini)},
      config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  // g1 serves nodes 2 and 3 of the blade.
  EXPECT_EQ(tuples[0].nodes, (std::vector<NodeIndex>{2, 3}));
}

TEST_F(CoalesceTest, SystemScopeHasNoNodes) {
  const ErrorRecord lustre = Rec(1000, ErrorCategory::kLustre,
                                 Severity::kFatal, LocScope::kSystem, "");
  ErrorRecord recovery = Rec(1900, ErrorCategory::kLustre,
                             Severity::kCorrected, LocScope::kSystem, "");
  recovery.recovered = recovery.time;
  const auto tuples =
      CoalesceEvents(machine_, {lustre, recovery}, config_, nullptr);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].nodes.empty());
  ASSERT_TRUE(tuples[0].recovered.has_value());
  const Interval window = tuples[0].ImpactWindow();
  EXPECT_TRUE(window.Contains(TimePoint(1500)));
  EXPECT_FALSE(window.Contains(TimePoint(2000)));
}

TEST_F(CoalesceTest, DropsUnknownComponents) {
  CoalesceStats stats;
  const auto tuples = CoalesceEvents(
      machine_,
      {Rec(1, ErrorCategory::kNodeHeartbeat, Severity::kFatal,
           LocScope::kNode, "c99-9c0s0n0")},
      config_, &stats);
  EXPECT_TRUE(tuples.empty());
  EXPECT_EQ(stats.unresolved_locations, 1u);
}

TEST_F(CoalesceTest, OutputSortedByFirstTime) {
  std::vector<ErrorRecord> records = {
      Rec(5000, ErrorCategory::kMemoryUE, Severity::kFatal, LocScope::kNode,
          node1_),
      Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
          LocScope::kNode, node0_),
  };
  const auto tuples = CoalesceEvents(machine_, records, config_, nullptr);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_LT(tuples[0].first, tuples[1].first);
}

}  // namespace
}  // namespace ld
