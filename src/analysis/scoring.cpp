#include "analysis/scoring.hpp"

#include "common/csv.hpp"
#include "common/obs/obs.hpp"
#include "common/strings.hpp"

namespace ld {
namespace {

Result<AppOutcome> ParseOutcome(const std::string& name) {
  for (int i = 0; i < kOutcomeCount; ++i) {
    const auto o = static_cast<AppOutcome>(i);
    if (name == AppOutcomeName(o)) return o;
  }
  return ParseError("unknown outcome '" + name + "'");
}

}  // namespace

ScoreReport ScoreClassification(
    const std::vector<AppRun>& runs,
    const std::vector<ClassifiedRun>& classified,
    const std::unordered_map<ApId, TruthRecord>& truth) {
  LD_OBS_SPAN("score");
  ScoreReport report;

  std::uint64_t tp = 0, fp = 0, fn = 0;
  std::uint64_t correct = 0;
  std::uint64_t cause_hits = 0, cause_unknown = 0, cause_total = 0;

  for (const ClassifiedRun& cls : classified) {
    const AppRun& run = runs[cls.run_index];
    const auto it = truth.find(run.apid);
    if (it == truth.end()) {
      ++report.missing_truth;
      continue;
    }
    const TruthRecord& t = it->second;
    ++report.scored_runs;
    const auto ti = static_cast<std::size_t>(t.outcome);
    const auto pi = static_cast<std::size_t>(cls.outcome);
    ++report.confusion[ti][pi];
    if (t.outcome == cls.outcome) ++correct;

    const bool truth_system = t.outcome == AppOutcome::kSystemFailure;
    const bool pred_system = cls.outcome == AppOutcome::kSystemFailure;
    if (truth_system && pred_system) {
      ++tp;
      ++cause_total;
      if (cls.cause == t.cause) {
        ++cause_hits;
      } else if (cls.cause == ErrorCategory::kUnknown) {
        ++cause_unknown;
      }
    } else if (pred_system) {
      ++fp;
    } else if (truth_system) {
      ++fn;
    }
  }

  report.system_precision =
      tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 0.0;
  report.system_recall =
      tp + fn > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0.0;
  const double pr = report.system_precision + report.system_recall;
  report.system_f1 =
      pr > 0.0 ? 2.0 * report.system_precision * report.system_recall / pr : 0.0;
  report.cause_accuracy = cause_total > 0 ? static_cast<double>(cause_hits) /
                                                static_cast<double>(cause_total)
                                          : 0.0;
  report.cause_unattributed =
      cause_total > 0
          ? static_cast<double>(cause_unknown) / static_cast<double>(cause_total)
          : 0.0;
  report.overall_accuracy =
      report.scored_runs > 0 ? static_cast<double>(correct) /
                                   static_cast<double>(report.scored_runs)
                             : 0.0;
  return report;
}

Result<std::unordered_map<ApId, TruthRecord>> LoadGroundTruth(
    const std::string& path) {
  LD_OBS_SPAN("ground_truth/load");
  auto table = CsvReader::ReadFile(path, /*has_header=*/true);
  if (!table.ok()) return table.status();
  std::unordered_map<ApId, TruthRecord> truth;
  truth.reserve(table->rows.size());
  for (const auto& row : table->rows) {
    if (row.size() < 5) {
      return ParseError("ground truth row with " + std::to_string(row.size()) +
                        " fields");
    }
    TruthRecord rec;
    auto apid = ParseUint(row[0]);
    if (!apid.ok()) return apid.status();
    rec.apid = *apid;
    auto outcome = ParseOutcome(row[1]);
    if (!outcome.ok()) return outcome.status();
    rec.outcome = *outcome;
    if (!row[2].empty()) {
      auto cause = ParseErrorCategory(row[2]);
      if (!cause.ok()) return cause.status();
      rec.cause = *cause;
    }
    auto event_id = ParseUint(row[3]);
    if (!event_id.ok()) return event_id.status();
    rec.event_id = *event_id;
    rec.cause_detected = row[4] == "1";
    truth.emplace(rec.apid, rec);
  }
  return truth;
}

}  // namespace ld
