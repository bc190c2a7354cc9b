#include "logdiver/fleet/partial.hpp"

namespace ld::fleet {

void SavePartialAggregates(SnapshotWriter& w, const PartialAggregates& p) {
  w.U32(p.header.record_version);
  w.U32(p.header.shard_index);
  w.U32(p.header.shard_count);
  w.U64(p.header.fingerprint);
  w.U64(p.runs_finalized);
  w.U64(p.unterminated_runs);
  w.U64(p.orphan_terminations);
  SaveParseStats(w, p.torque_stats);
  SaveParseStats(w, p.alps_stats);
  SaveParseStats(w, p.syslog_stats);
  SaveParseStats(w, p.hwerr_stats);
  w.U64(p.coalesce_stats.input_events);
  w.U64(p.coalesce_stats.tuples);
  w.U64(p.coalesce_stats.unresolved_locations);
  SaveIngestStats(w, p.ingest);
  SaveStatus(w, p.ingest_status);
  p.metrics.SaveState(w);
}

Result<PartialAggregates> LoadPartialAggregates(
    std::span<const std::uint8_t> payload,
    const MetricsConfig& metrics_config) {
  SnapshotReader r(payload);
  PartialAggregates p(metrics_config);
  p.header.record_version = r.U32();
  if (r.ok() && p.header.record_version != kPartialRecordVersion) {
    return FailedPreconditionError(
        "partial record version " + std::to_string(p.header.record_version) +
        ", this build speaks " + std::to_string(kPartialRecordVersion));
  }
  p.header.shard_index = r.U32();
  p.header.shard_count = r.U32();
  p.header.fingerprint = r.U64();
  p.runs_finalized = r.U64();
  p.unterminated_runs = r.U64();
  p.orphan_terminations = r.U64();
  LoadParseStats(r, p.torque_stats);
  LoadParseStats(r, p.alps_stats);
  LoadParseStats(r, p.syslog_stats);
  LoadParseStats(r, p.hwerr_stats);
  p.coalesce_stats.input_events = r.U64();
  p.coalesce_stats.tuples = r.U64();
  p.coalesce_stats.unresolved_locations = r.U64();
  LoadIngestStats(r, p.ingest);
  p.ingest_status = LoadStatus(r);
  p.metrics.LoadState(r);
  if (!r.ok()) return r.status();
  if (r.remaining() != 0) {
    return ParseError("partial payload has " +
                      std::to_string(r.remaining()) + " trailing bytes");
  }
  return p;
}

Status WritePartialFile(const std::string& path, const PartialAggregates& p) {
  SnapshotWriter w;
  SavePartialAggregates(w, p);
  return WriteSnapshotFile(path, w.bytes(), p.header.fingerprint);
}

Result<PartialAggregates> ReadPartialFile(
    const std::string& path, const MetricsConfig& metrics_config) {
  LD_ASSIGN_OR_RETURN(const FramedFile file,
                      OpenFramedFile(path, kSnapshotFile));
  LD_ASSIGN_OR_RETURN(PartialAggregates p,
                      LoadPartialAggregates(file.payload, metrics_config));
  if (file.fingerprint != p.header.fingerprint) {
    return ParseError("partial " + path +
                      ": file-header fingerprint disagrees with the payload "
                      "header");
  }
  return p;
}

}  // namespace ld::fleet
