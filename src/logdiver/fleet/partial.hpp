// Partial-snapshot records: the self-describing, verifiable unit a
// fleet worker ships back to its supervisor.
//
// A partial file reuses the snapshot framing (magic, version, CRC,
// header fingerprint — snapshot.hpp), so torn or bit-flipped partials
// are rejected the same way torn checkpoints are.  The payload adds a
// shard header (record version, shard index, shard count, the
// bundle fingerprint again) followed by the worker's
// mergeable aggregates: its shard-filtered MetricsAccumulator plus the
// bundle-wide stats every worker reproduces identically (parse/
// coalesce/ingest counters, finalized-run counts).  The supervisor
// validates CRC + fingerprint + shard identity before a partial is
// allowed anywhere near the merge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "logdiver/metrics.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/records.hpp"
#include "logdiver/snapshot.hpp"

namespace ld::fleet {

/// Payload-level record version; bump when the partial layout changes.
/// Version 3 dropped v2's per-worker claims-cache counters: workers no
/// longer load the bundle, the supervisor does, once.
inline constexpr std::uint32_t kPartialRecordVersion = 3;

/// Who computed this partial, over what input.
struct PartialHeader {
  std::uint32_t record_version = kPartialRecordVersion;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// The bundle fingerprint (MappedBundle::fingerprint) — also stamped
  /// in the file header, so mismatches are caught before payload
  /// parsing.  The partition is checked by shard_count.
  std::uint64_t fingerprint = 0;
};

/// One worker's output: the shard-owned metric accumulator plus the
/// bundle-wide counters (identical on every surviving worker; the
/// supervisor takes them from the lowest-index survivor).
struct PartialAggregates {
  PartialHeader header;
  std::uint64_t runs_finalized = 0;
  std::uint64_t unterminated_runs = 0;
  std::uint64_t orphan_terminations = 0;
  ParseStats torque_stats;
  ParseStats alps_stats;
  ParseStats syslog_stats;
  ParseStats hwerr_stats;
  CoalesceStats coalesce_stats;
  IngestStats ingest;
  Status ingest_status;
  MetricsAccumulator metrics;

  explicit PartialAggregates(MetricsConfig metrics_config = {})
      : metrics(std::move(metrics_config)) {}
};

/// Serializes a partial into `w` (header first, accumulator last).
void SavePartialAggregates(SnapshotWriter& w, const PartialAggregates& p);

/// Parses a partial payload.  `metrics_config` must match the config
/// the worker ran with (scale-bucket geometry is construction-time).
Result<PartialAggregates> LoadPartialAggregates(
    std::span<const std::uint8_t> payload,
    const MetricsConfig& metrics_config);

/// Writes `p` to `path` with the snapshot file framing, stamping
/// `p.header.fingerprint` into the file header.
Status WritePartialFile(const std::string& path, const PartialAggregates& p);

/// Reads and validates a partial file: framing (magic/version/CRC),
/// then file-header fingerprint against the payload header — a
/// mismatch means the file was tampered with or mixed up in transit.
Result<PartialAggregates> ReadPartialFile(const std::string& path,
                                          const MetricsConfig& metrics_config);

}  // namespace ld::fleet
