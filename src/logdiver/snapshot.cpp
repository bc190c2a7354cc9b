#include "logdiver/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>

#include "common/obs/obs.hpp"
#include "logdiver/block_reader.hpp"
#include "logdiver/coalesce.hpp"
#include "logdiver/metrics.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/reconstruct.hpp"
#include "logdiver/records.hpp"

namespace ld {
namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".ldsnap";

// Slice-by-8 CRC tables: table[0] is the classic bytewise table, and
// table[j][b] is the CRC of byte b followed by j zero bytes, so eight
// bytes fold in one step.  Validating a multi-megabyte snapshot or
// parsed-bundle-cache payload is on the cache's warm hit path, where
// the bytewise loop was the single largest cost.
const std::array<std::array<std::uint32_t, 256>, 8>& Crc32Tables() {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t j = 1; j < 8; ++j) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[j][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

void PutU32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t GetU64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(GetU32(in)) |
         static_cast<std::uint64_t>(GetU32(in + 4)) << 32;
}

/// CRC-32 register update without the final inversion, so a payload
/// written in several parts is checksummed part by part.
std::uint32_t Crc32Update(std::uint32_t crc, const std::uint8_t* bytes,
                          std::size_t size) {
  const auto& t = Crc32Tables();
  // The 8-at-a-time fold reads the words little-endian; on a big-endian
  // host the bytewise tail below handles everything.
  if constexpr (std::endian::native == std::endian::little) {
    while (size >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, bytes, 4);
      std::memcpy(&hi, bytes + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
      bytes += 8;
      size -= 8;
    }
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

/// Sizes `rows` from a decoded u32 count, vetted against the bytes left
/// (each row encodes to at least `row_bytes`): a lying count latches an
/// error and leaves `rows` empty instead of throwing std::bad_alloc.
template <typename T>
void ResizeRows(SnapshotReader& r, std::vector<T>& rows,
                std::size_t row_bytes) {
  const std::uint32_t n = r.U32();
  rows.clear();
  if (r.CheckCount(n, row_bytes)) rows.resize(n);
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size) {
  return Crc32Update(0xFFFFFFFFu, static_cast<const std::uint8_t*>(data),
                     size) ^
         0xFFFFFFFFu;
}

void SnapshotWriter::U32(std::uint32_t v) {
  buffer_.push_back(static_cast<std::uint8_t>(v));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 16));
  buffer_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void SnapshotWriter::U64(std::uint64_t v) {
  U32(static_cast<std::uint32_t>(v));
  U32(static_cast<std::uint32_t>(v >> 32));
}

void SnapshotWriter::F64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void SnapshotWriter::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void SnapshotWriter::Raw(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void SnapshotWriter::Varint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void SnapshotWriter::VarintSigned(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  Varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void SnapshotReader::Fail(std::string why) {
  if (status_.ok()) {
    status_ = InternalError("snapshot payload: " + std::move(why));
  }
}

bool SnapshotReader::CheckCount(std::uint64_t count,
                                std::size_t min_elem_bytes) {
  if (!ok()) return false;
  if (count > remaining() / min_elem_bytes) {
    Fail("count " + std::to_string(count) + " of >= " +
         std::to_string(min_elem_bytes) + "-byte elements overruns the " +
         std::to_string(remaining()) + " bytes left");
    return false;
  }
  return true;
}

std::uint8_t SnapshotReader::U8() {
  if (pos_ + 1 > size_) {
    Fail("truncated u8 at offset " + std::to_string(pos_));
    return 0;
  }
  return data_[pos_++];
}

std::uint32_t SnapshotReader::U32() {
  if (pos_ + 4 > size_) {
    Fail("truncated u32 at offset " + std::to_string(pos_));
    pos_ = size_;
    return 0;
  }
  const std::uint32_t v = GetU32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t SnapshotReader::U64() {
  const std::uint64_t lo = U32();
  const std::uint64_t hi = U32();
  return lo | hi << 32;
}

double SnapshotReader::F64() {
  const std::uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void SnapshotReader::Raw(void* out, std::size_t size) {
  if (pos_ + size > size_ || pos_ + size < pos_) {
    Fail("truncated raw block of " + std::to_string(size) + " bytes");
    pos_ = size_;
    std::memset(out, 0, size);
    return;
  }
  // An empty column's data() may be null, which memcpy must not see.
  if (size != 0) std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

std::uint64_t SnapshotReader::Varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= size_) {
      Fail("truncated varint at offset " + std::to_string(pos_));
      return 0;
    }
    const std::uint8_t byte = data_[pos_++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th group carries only bit 63: anything above is an
      // over-long encoding, not a value.
      if (shift == 63 && byte > 1) break;
      return v;
    }
  }
  Fail("malformed varint at offset " + std::to_string(pos_));
  return 0;
}

std::int64_t SnapshotReader::VarintSigned() {
  const std::uint64_t u = Varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::string SnapshotReader::Str() {
  const std::uint32_t len = U32();
  if (pos_ + len > size_) {
    Fail("truncated string of length " + std::to_string(len));
    pos_ = size_;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

// --- shared struct serializers ---------------------------------------

void SaveParseStats(SnapshotWriter& w, const ParseStats& s) {
  w.U64(s.lines);
  w.U64(s.records);
  w.U64(s.skipped);
  w.U64(s.malformed);
}

void LoadParseStats(SnapshotReader& r, ParseStats& s) {
  s.lines = r.U64();
  s.records = r.U64();
  s.skipped = r.U64();
  s.malformed = r.U64();
}

void SaveIngestStats(SnapshotWriter& w, const IngestStats& s) {
  w.U64(s.quarantined);
  w.U64(s.quarantine_overflow);
  w.U64(s.duplicate_placements);
  w.U64(s.duplicate_terminations);
  w.U64(s.duplicate_job_records);
  w.U64(s.watermark_regressions);
  w.U64(s.evicted_pending_runs);
  w.U64(s.evicted_tuples);
  w.U64(s.budget_exhausted_sources);
  w.U64(s.lines_dropped_after_budget);
}

void LoadIngestStats(SnapshotReader& r, IngestStats& s) {
  s.quarantined = r.U64();
  s.quarantine_overflow = r.U64();
  s.duplicate_placements = r.U64();
  s.duplicate_terminations = r.U64();
  s.duplicate_job_records = r.U64();
  s.watermark_regressions = r.U64();
  s.evicted_pending_runs = r.U64();
  s.evicted_tuples = r.U64();
  s.budget_exhausted_sources = r.U64();
  s.lines_dropped_after_budget = r.U64();
}

void SaveStatus(SnapshotWriter& w, const Status& s) {
  w.U8(static_cast<std::uint8_t>(s.code()));
  w.Str(s.message());
}

Status LoadStatus(SnapshotReader& r) {
  const auto code = static_cast<StatusCode>(r.U8());
  std::string message = r.Str();
  if (code == StatusCode::kOk) return Status::Ok();
  return Status(code, std::move(message));
}

void SaveQuarantineEntry(SnapshotWriter& w, const QuarantineEntry& e) {
  w.U8(static_cast<std::uint8_t>(e.source));
  w.U64(e.line_number);
  w.Str(e.reason);
  w.Str(e.line);
}

void LoadQuarantineEntry(SnapshotReader& r, QuarantineEntry& e) {
  e.source = static_cast<LogSource>(r.U8());
  e.line_number = r.U64();
  e.reason = r.Str();
  e.line = r.Str();
}

void SaveMetricsReport(SnapshotWriter& w, const MetricsReport& report) {
  w.U64(report.total_runs);
  w.F64(report.total_node_hours);
  w.F64(report.system_failure_fraction);
  w.F64(report.lost_node_hours_fraction);
  w.F64(report.overall_mtti_hours);

  w.U32(static_cast<std::uint32_t>(report.outcomes.size()));
  for (const OutcomeRow& row : report.outcomes) {
    w.U8(static_cast<std::uint8_t>(row.outcome));
    w.U64(row.runs);
    w.F64(row.runs_share);
    w.F64(row.node_hours);
    w.F64(row.node_hours_share);
  }

  w.U32(static_cast<std::uint32_t>(report.categories.size()));
  for (const CategoryRow& row : report.categories) {
    w.U8(static_cast<std::uint8_t>(row.category));
    w.U64(row.tuples);
    w.U64(row.fatal_tuples);
    w.U64(row.raw_events);
    w.F64(row.fatal_mtbe_hours);
  }

  w.U64(report.availability.incidents);
  w.F64(report.availability.downtime_hours);
  w.F64(report.availability.availability);

  w.U32(static_cast<std::uint32_t>(report.attribution.size()));
  for (const AttributionRow& row : report.attribution) {
    w.U8(static_cast<std::uint8_t>(row.cause));
    w.U64(row.xe_failures);
    w.U64(row.xk_failures);
  }

  for (const auto* scale : {&report.xe_scale, &report.xk_scale}) {
    w.U32(static_cast<std::uint32_t>(scale->size()));
    for (const ScalePoint& p : *scale) {
      w.U32(p.lo);
      w.U32(p.hi);
      w.U64(p.runs);
      w.U64(p.system_failures);
      w.F64(p.failure_probability.point);
      w.F64(p.failure_probability.lo);
      w.F64(p.failure_probability.hi);
    }
  }

  w.U32(static_cast<std::uint32_t>(report.monthly.size()));
  for (const MonthlyPoint& p : report.monthly) {
    w.I32(p.year);
    w.I32(p.month);
    w.U64(p.runs);
    w.U64(p.system_failures);
    w.F64(p.node_hours);
    w.F64(p.lost_node_hours);
    w.F64(p.mtti_hours);
  }

  w.U32(static_cast<std::uint32_t>(report.detection_gap.size()));
  for (const DetectionGapRow& row : report.detection_gap) {
    w.U8(static_cast<std::uint8_t>(row.type));
    w.U64(row.system_failures);
    w.U64(row.attributed);
    w.U64(row.unattributed);
    w.F64(row.unattributed_share);
  }

  w.U32(static_cast<std::uint32_t>(report.queue_waits.size()));
  for (const QueueWaitRow& row : report.queue_waits) {
    w.U32(row.lo);
    w.U32(row.hi);
    w.U64(row.jobs);
    w.F64(row.mean_wait_hours);
    w.F64(row.p95_wait_hours);
  }

  w.U64(report.job_impact.jobs);
  w.U64(report.job_impact.jobs_with_system_failure);
  w.F64(report.job_impact.fraction);

  SaveIngestStats(w, report.ingest);
}

void LoadMetricsReport(SnapshotReader& r, MetricsReport& report) {
  report.total_runs = r.U64();
  report.total_node_hours = r.F64();
  report.system_failure_fraction = r.F64();
  report.lost_node_hours_fraction = r.F64();
  report.overall_mtti_hours = r.F64();

  ResizeRows(r, report.outcomes, 1 + 4 * 8);
  for (OutcomeRow& row : report.outcomes) {
    row.outcome = static_cast<AppOutcome>(r.U8());
    row.runs = r.U64();
    row.runs_share = r.F64();
    row.node_hours = r.F64();
    row.node_hours_share = r.F64();
  }

  ResizeRows(r, report.categories, 1 + 4 * 8);
  for (CategoryRow& row : report.categories) {
    row.category = static_cast<ErrorCategory>(r.U8());
    row.tuples = r.U64();
    row.fatal_tuples = r.U64();
    row.raw_events = r.U64();
    row.fatal_mtbe_hours = r.F64();
  }

  report.availability.incidents = r.U64();
  report.availability.downtime_hours = r.F64();
  report.availability.availability = r.F64();

  ResizeRows(r, report.attribution, 1 + 2 * 8);
  for (AttributionRow& row : report.attribution) {
    row.cause = static_cast<ErrorCategory>(r.U8());
    row.xe_failures = r.U64();
    row.xk_failures = r.U64();
  }

  for (auto* scale : {&report.xe_scale, &report.xk_scale}) {
    ResizeRows(r, *scale, 2 * 4 + 5 * 8);
    for (ScalePoint& p : *scale) {
      p.lo = r.U32();
      p.hi = r.U32();
      p.runs = r.U64();
      p.system_failures = r.U64();
      p.failure_probability.point = r.F64();
      p.failure_probability.lo = r.F64();
      p.failure_probability.hi = r.F64();
    }
  }

  ResizeRows(r, report.monthly, 2 * 4 + 5 * 8);
  for (MonthlyPoint& p : report.monthly) {
    p.year = r.I32();
    p.month = r.I32();
    p.runs = r.U64();
    p.system_failures = r.U64();
    p.node_hours = r.F64();
    p.lost_node_hours = r.F64();
    p.mtti_hours = r.F64();
  }

  ResizeRows(r, report.detection_gap, 1 + 4 * 8);
  for (DetectionGapRow& row : report.detection_gap) {
    row.type = static_cast<NodeType>(r.U8());
    row.system_failures = r.U64();
    row.attributed = r.U64();
    row.unattributed = r.U64();
    row.unattributed_share = r.F64();
  }

  ResizeRows(r, report.queue_waits, 2 * 4 + 3 * 8);
  for (QueueWaitRow& row : report.queue_waits) {
    row.lo = r.U32();
    row.hi = r.U32();
    row.jobs = r.U64();
    row.mean_wait_hours = r.F64();
    row.p95_wait_hours = r.F64();
  }

  report.job_impact.jobs = r.U64();
  report.job_impact.jobs_with_system_failure = r.U64();
  report.job_impact.fraction = r.F64();

  LoadIngestStats(r, report.ingest);
}

std::uint32_t FingerprintReport(const MetricsReport& report) {
  SnapshotWriter w;
  SaveMetricsReport(w, report);
  return Crc32(w.bytes());
}

std::uint32_t FingerprintIngest(const IngestStats& stats) {
  SnapshotWriter w;
  SaveIngestStats(w, stats);
  return Crc32(w.bytes());
}

// --- columnar record encoding ----------------------------------------

namespace {

/// Per-column delta stream: consecutive apids ascend and times cluster
/// within a run population, so most deltas fit in 1–2 bytes instead of
/// 8.  Arithmetic is uint64 (wraparound well-defined) with C++20
/// two's-complement casts at the boundaries.
class DeltaWriter {
 public:
  explicit DeltaWriter(SnapshotWriter& w) : w_(w) {}
  void Add(std::uint64_t v) {
    w_.VarintSigned(static_cast<std::int64_t>(v - prev_));
    prev_ = v;
  }
  void AddSigned(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }

 private:
  SnapshotWriter& w_;
  std::uint64_t prev_ = 0;
};

class DeltaReader {
 public:
  explicit DeltaReader(SnapshotReader& r) : r_(r) {}
  std::uint64_t Next() {
    prev_ += static_cast<std::uint64_t>(r_.VarintSigned());
    return prev_;
  }
  std::int64_t NextSigned() { return static_cast<std::int64_t>(Next()); }

 private:
  SnapshotReader& r_;
  std::uint64_t prev_ = 0;
};

// The record a container element holds: the element itself, a map
// entry's value, or the pointee.
template <typename T>
const T& RecordOf(const T& v) {
  return v;
}
template <typename K, typename T>
const T& RecordOf(const std::pair<const K, T>& kv) {
  return kv.second;
}
template <typename T>
const T& RecordOf(const T* p) {
  return *p;
}

/// Node-list CSR: per-row varint length + one varint entry stream.
template <typename Rows>
void PutNodeCsr(SnapshotWriter& w, const Rows& rows) {
  for (const auto& row : rows) w.Varint(RecordOf(row).nodes.size());
  for (const auto& row : rows) {
    for (const NodeIndex nid : RecordOf(row).nodes) w.Varint(nid);
  }
}

template <typename Row>
bool GetNodeCsr(SnapshotReader& r, std::vector<Row>& rows, const char* what) {
  // Each entry costs at least one payload byte: a total past the
  // remaining payload means a malformed length column.  Checked as the
  // lengths are read, so a lying length cannot wrap the sum.
  std::vector<std::uint64_t> lengths(rows.size());
  std::uint64_t total = 0;
  for (auto& len : lengths) {
    len = r.Varint();
    if (len > r.remaining() || total + len > r.remaining()) {
      total = std::numeric_limits<std::uint64_t>::max();
      break;
    }
    total += len;
  }
  if (!r.ok()) return false;
  if (total > r.remaining()) {
    r.Fail(std::string(what) + " node CSR is inconsistent");
    return false;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].nodes.resize(lengths[i]);
    for (auto& nid : rows[i].nodes) {
      nid = static_cast<NodeIndex>(r.Varint());
    }
  }
  return r.ok();
}

// Smallest encoding of one row, the bound a decoded row count is
// vetted against: every varint/flag column costs at least one byte per
// row, every symbol index four.
constexpr std::size_t kTorqueRowMinBytes =
    1 + 8 + 8 + 3 * 4 + 3 * 8 + 4 + 4 + 2 * 8;  // fixed-width columns
constexpr std::size_t kRunRowMinBytes = 15 + 2 * 4;
constexpr std::size_t kTupleRowMinBytes = 10 + 4;

template <typename Rows>
void PutTorqueRows(SnapshotWriter& w, const Rows& recs) {
  w.U64(recs.size());
  for (const auto& e : recs) w.U8(static_cast<std::uint8_t>(RecordOf(e).kind));
  for (const auto& e : recs) w.I64(RecordOf(e).time.unix_seconds());
  for (const auto& e : recs) w.U64(RecordOf(e).jobid);
  PutSymbolColumn(w, recs, [](const auto& e) { return RecordOf(e).user; });
  PutSymbolColumn(w, recs, [](const auto& e) { return RecordOf(e).queue; });
  PutSymbolColumn(w, recs, [](const auto& e) { return RecordOf(e).job_name; });
  for (const auto& e : recs) w.I64(RecordOf(e).submit.unix_seconds());
  for (const auto& e : recs) w.I64(RecordOf(e).start.unix_seconds());
  for (const auto& e : recs) w.I64(RecordOf(e).end.unix_seconds());
  for (const auto& e : recs) w.I32(RecordOf(e).exit_status);
  for (const auto& e : recs) w.U32(RecordOf(e).nodect);
  for (const auto& e : recs) w.I64(RecordOf(e).walltime_limit.seconds());
  for (const auto& e : recs) w.I64(RecordOf(e).walltime_used.seconds());
}

// Column order is the cache's v1 order; v2 only shrank the element
// encoding (docs/FORMATS.md "Parsed-bundle cache v2").
template <typename Rows>
void PutRunRows(SnapshotWriter& w, const Rows& runs) {
  w.Varint(runs.size());
  {
    DeltaWriter apid(w);
    for (const auto& e : runs) apid.Add(RecordOf(e).apid);
  }
  {
    DeltaWriter jobid(w);
    for (const auto& e : runs) jobid.Add(RecordOf(e).jobid);
  }
  PutSymbolColumn(w, runs, [](const auto& e) { return RecordOf(e).user; });
  PutSymbolColumn(w, runs, [](const auto& e) { return RecordOf(e).queue; });
  for (const auto& e : runs) {
    w.U8(static_cast<std::uint8_t>(RecordOf(e).node_type));
  }
  PutNodeCsr(w, runs);
  for (const auto& e : runs) w.Varint(RecordOf(e).nodect);
  {
    DeltaWriter start(w);
    for (const auto& e : runs) {
      start.AddSigned(RecordOf(e).start.unix_seconds());
    }
  }
  {
    DeltaWriter end(w);
    for (const auto& e : runs) end.AddSigned(RecordOf(e).end.unix_seconds());
  }
  for (const auto& e : runs) {
    const AppRun& run = RecordOf(e);
    std::uint8_t flags = 0;
    if (run.has_termination) flags |= 1;
    if (run.killed_node_failure) flags |= 2;
    w.U8(flags);
  }
  for (const auto& e : runs) w.VarintSigned(RecordOf(e).exit_code);
  for (const auto& e : runs) w.VarintSigned(RecordOf(e).exit_signal);
  for (const auto& e : runs) w.Varint(RecordOf(e).failed_nid);
  {
    DeltaWriter submit(w);
    for (const auto& e : runs) {
      submit.AddSigned(RecordOf(e).job_submit.unix_seconds());
    }
  }
  {
    DeltaWriter jstart(w);
    for (const auto& e : runs) {
      jstart.AddSigned(RecordOf(e).job_start.unix_seconds());
    }
  }
  for (const auto& e : runs) {
    w.VarintSigned(RecordOf(e).walltime_limit.seconds());
  }
  for (const auto& e : runs) w.VarintSigned(RecordOf(e).job_exit_status);
}

template <typename Rows>
void PutTupleRows(SnapshotWriter& w, const Rows& tuples) {
  w.Varint(tuples.size());
  {
    DeltaWriter id(w);
    for (const auto& e : tuples) id.Add(RecordOf(e).id);
  }
  for (const auto& e : tuples) {
    w.U8(static_cast<std::uint8_t>(RecordOf(e).category));
  }
  for (const auto& e : tuples) {
    w.U8(static_cast<std::uint8_t>(RecordOf(e).severity));
  }
  for (const auto& e : tuples) {
    w.U8(static_cast<std::uint8_t>(RecordOf(e).scope));
  }
  PutSymbolColumn(w, tuples,
                  [](const auto& e) { return RecordOf(e).location; });
  PutNodeCsr(w, tuples);
  {
    DeltaWriter first(w);
    for (const auto& e : tuples) {
      first.AddSigned(RecordOf(e).first.unix_seconds());
    }
  }
  {
    DeltaWriter last(w);
    for (const auto& e : tuples) {
      last.AddSigned(RecordOf(e).last.unix_seconds());
    }
  }
  for (const auto& e : tuples) w.U8(RecordOf(e).recovered.has_value() ? 1 : 0);
  {
    // Sparse column: only set recovery times are written, as deltas.
    DeltaWriter recovered(w);
    for (const auto& e : tuples) {
      const ErrorTuple& t = RecordOf(e);
      if (t.recovered) recovered.AddSigned(t.recovered->unix_seconds());
    }
  }
  for (const auto& e : tuples) w.Varint(RecordOf(e).count);
  for (const auto& e : tuples) {
    const ErrorTuple& t = RecordOf(e);
    std::uint8_t flags = 0;
    if (t.from_syslog) flags |= 1;
    if (t.from_hwerr) flags |= 2;
    w.U8(flags);
  }
}

}  // namespace

void PutTorque(SnapshotWriter& w, const std::vector<TorqueRecord>& recs) {
  PutTorqueRows(w, recs);
}
void PutTorque(SnapshotWriter& w,
               const std::map<std::uint64_t, TorqueRecord>& by_jobid) {
  PutTorqueRows(w, by_jobid);
}

void GetTorque(SnapshotReader& r, std::vector<TorqueRecord>& recs) {
  const std::uint64_t n = r.U64();
  if (!r.CheckCount(n, kTorqueRowMinBytes)) return;
  recs.resize(n);
  for (auto& rec : recs) rec.kind = static_cast<TorqueRecord::Kind>(r.U8());
  for (auto& rec : recs) rec.time = TimePoint(r.I64());
  for (auto& rec : recs) rec.jobid = r.U64();
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].user = s; });
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].queue = s; });
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].job_name = s; });
  for (auto& rec : recs) rec.submit = TimePoint(r.I64());
  for (auto& rec : recs) rec.start = TimePoint(r.I64());
  for (auto& rec : recs) rec.end = TimePoint(r.I64());
  for (auto& rec : recs) rec.exit_status = r.I32();
  for (auto& rec : recs) rec.nodect = r.U32();
  for (auto& rec : recs) rec.walltime_limit = Duration(r.I64());
  for (auto& rec : recs) rec.walltime_used = Duration(r.I64());
}

void PutRuns(SnapshotWriter& w, const std::vector<AppRun>& runs) {
  PutRunRows(w, runs);
}
void PutRuns(SnapshotWriter& w, const std::deque<AppRun>& runs) {
  PutRunRows(w, runs);
}
void PutRuns(SnapshotWriter& w,
             const std::map<std::uint64_t, AppRun>& by_apid) {
  PutRunRows(w, by_apid);
}

void GetRuns(SnapshotReader& r, std::vector<AppRun>& runs) {
  const std::uint64_t n = r.Varint();
  if (!r.CheckCount(n, kRunRowMinBytes)) return;
  runs.resize(n);
  {
    DeltaReader apid(r);
    for (auto& run : runs) run.apid = apid.Next();
  }
  {
    DeltaReader jobid(r);
    for (auto& run : runs) run.jobid = jobid.Next();
  }
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { runs[i].user = s; });
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { runs[i].queue = s; });
  for (auto& run : runs) run.node_type = static_cast<NodeType>(r.U8());
  if (!GetNodeCsr(r, runs, "run")) return;
  for (auto& run : runs) run.nodect = static_cast<std::uint32_t>(r.Varint());
  {
    DeltaReader start(r);
    for (auto& run : runs) run.start = TimePoint(start.NextSigned());
  }
  {
    DeltaReader end(r);
    for (auto& run : runs) run.end = TimePoint(end.NextSigned());
  }
  for (auto& run : runs) {
    const std::uint8_t flags = r.U8();
    run.has_termination = (flags & 1) != 0;
    run.killed_node_failure = (flags & 2) != 0;
  }
  for (auto& run : runs) run.exit_code = static_cast<int>(r.VarintSigned());
  for (auto& run : runs) run.exit_signal = static_cast<int>(r.VarintSigned());
  for (auto& run : runs) run.failed_nid = static_cast<NodeIndex>(r.Varint());
  {
    DeltaReader submit(r);
    for (auto& run : runs) run.job_submit = TimePoint(submit.NextSigned());
  }
  {
    DeltaReader jstart(r);
    for (auto& run : runs) run.job_start = TimePoint(jstart.NextSigned());
  }
  for (auto& run : runs) run.walltime_limit = Duration(r.VarintSigned());
  for (auto& run : runs) {
    run.job_exit_status = static_cast<int>(r.VarintSigned());
  }
}

void PutTuples(SnapshotWriter& w, const std::vector<ErrorTuple>& tuples) {
  PutTupleRows(w, tuples);
}
void PutTuples(SnapshotWriter& w, const std::deque<ErrorTuple>& tuples) {
  PutTupleRows(w, tuples);
}
void PutTuples(SnapshotWriter& w,
               const std::vector<const ErrorTuple*>& tuples) {
  PutTupleRows(w, tuples);
}

void GetTuples(SnapshotReader& r, std::vector<ErrorTuple>& tuples) {
  const std::uint64_t n = r.Varint();
  if (!r.CheckCount(n, kTupleRowMinBytes)) return;
  tuples.resize(n);
  {
    DeltaReader id(r);
    for (auto& t : tuples) t.id = id.Next();
  }
  for (auto& t : tuples) t.category = static_cast<ErrorCategory>(r.U8());
  for (auto& t : tuples) t.severity = static_cast<Severity>(r.U8());
  for (auto& t : tuples) t.scope = static_cast<LocScope>(r.U8());
  GetSymbolColumn(r, n,
                  [&](std::size_t i, Symbol s) { tuples[i].location = s; });
  if (!GetNodeCsr(r, tuples, "tuple")) return;
  {
    DeltaReader first(r);
    for (auto& t : tuples) t.first = TimePoint(first.NextSigned());
  }
  {
    DeltaReader last(r);
    for (auto& t : tuples) t.last = TimePoint(last.NextSigned());
  }
  std::vector<std::uint8_t> recovered_set(n);
  for (auto& set : recovered_set) set = r.U8();
  {
    DeltaReader recovered(r);
    for (std::size_t i = 0; i < n; ++i) {
      if (recovered_set[i] != 0) {
        tuples[i].recovered = TimePoint(recovered.NextSigned());
      }
    }
  }
  for (auto& t : tuples) t.count = static_cast<std::uint32_t>(r.Varint());
  for (auto& t : tuples) {
    const std::uint8_t flags = r.U8();
    t.from_syslog = (flags & 1) != 0;
    t.from_hwerr = (flags & 2) != 0;
  }
}

// --- framed files ------------------------------------------------------

Result<std::uint64_t> WriteFramedFile(
    const std::string& path, const FramedKind& kind,
    std::initializer_list<std::span<const std::uint8_t>> payload,
    std::uint64_t fingerprint) {
  std::uint64_t size = 0;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const auto part : payload) {
    size += part.size();
    crc = Crc32Update(crc, part.data(), part.size());
  }
  std::array<std::uint8_t, kFramedHeaderSize> header;
  std::memcpy(header.data(), kind.magic.data(), kind.magic.size());
  PutU32(header.data() + 8, kind.version);
  PutU32(header.data() + 12, crc ^ 0xFFFFFFFFu);
  PutU32(header.data() + 16, static_cast<std::uint32_t>(size));
  PutU32(header.data() + 20, static_cast<std::uint32_t>(size >> 32));
  PutU32(header.data() + 24, static_cast<std::uint32_t>(fingerprint));
  PutU32(header.data() + 28, static_cast<std::uint32_t>(fingerprint >> 32));

  // The tmp name is pid-qualified: two processes sharing a directory
  // (the daemon's per-tenant layout, fleet workers sharing a cache, a
  // test racing two writers) must never interleave writes into one tmp
  // file — with a shared name, one writer's rename could publish a file
  // the other was still appending to, a torn file under the *final*
  // name that atomicity exists to prevent.  Concurrent writers of one
  // path race benignly: last rename wins and both candidates are
  // complete, valid files.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return InternalError("cannot create " + tmp + ": " +
                         std::strerror(errno));
  }
  const auto fail = [&](const std::string& what) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return InternalError(what + " " + tmp + " failed: " + why);
  };
  const auto write_all = [fd](const std::uint8_t* data, std::size_t n) {
    while (n > 0) {
      const ssize_t done = ::write(fd, data, n);
      if (done < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data += done;
      n -= static_cast<std::size_t>(done);
    }
    return true;
  };
  if (!write_all(header.data(), header.size())) return fail("write to");
  for (const auto part : payload) {
    if (!write_all(part.data(), part.size())) return fail("write to");
  }
  // fsync before rename: the rename must never become durable ahead of
  // the data it points at.
  if (::fsync(fd) != 0) return fail("fsync");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return InternalError("close " + tmp + " failed");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    ::unlink(tmp.c_str());
    return InternalError("rename to " + path + " failed: " + why);
  }
  return kFramedHeaderSize + size;
}

Result<FramedFile> OpenFramedFile(const std::string& path,
                                  const FramedKind& kind,
                                  std::uint64_t expected_fingerprint) {
  FramedFile out;
  LD_ASSIGN_OR_RETURN(out.file, MappedFile::Open(path));
  const std::string_view data = out.file.data();
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
  if (data.size() < kFramedHeaderSize) {
    return ParseError(path + " shorter than the header");
  }
  if (!std::equal(kind.magic.begin(), kind.magic.end(), bytes)) {
    return ParseError(path + " has a bad magic number");
  }
  const std::uint32_t version = GetU32(bytes + 8);
  if (version != kind.version) {
    return ParseError(path + " has format version " + std::to_string(version) +
                      ", this build speaks " + std::to_string(kind.version));
  }
  const std::uint32_t crc = GetU32(bytes + 12);
  const std::uint64_t declared = GetU64(bytes + 16);
  if (declared != data.size() - kFramedHeaderSize) {
    return ParseError(path + " is torn (declares " + std::to_string(declared) +
                      " payload bytes, has " +
                      std::to_string(data.size() - kFramedHeaderSize) + ")");
  }
  out.payload = std::span<const std::uint8_t>(bytes + kFramedHeaderSize,
                                              declared);
  if (Crc32(out.payload.data(), out.payload.size()) != crc) {
    return ParseError(path + " fails its CRC check");
  }
  out.fingerprint = GetU64(bytes + 24);
  if (expected_fingerprint != 0 && out.fingerprint != expected_fingerprint) {
    return ParseError(path + " belongs to a different input (fingerprint " +
                      std::to_string(out.fingerprint) + ", expected " +
                      std::to_string(expected_fingerprint) + ")");
  }
  return out;
}

Status WriteSnapshotFile(const std::string& path,
                         std::span<const std::uint8_t> payload,
                         std::uint64_t fingerprint) {
  LD_OBS_SPAN("snapshot/write");
  const std::uint64_t write_start_ns = LD_OBS_NOW_NS();
  auto written = WriteFramedFile(path, kSnapshotFile, {payload}, fingerprint);
  if (!written.ok()) {
    return InternalError("snapshot: " + written.status().message());
  }
  LD_OBS_COUNTER_ADD(obs::names::kSnapshotWritesTotal, 1);
  LD_OBS_COUNTER_ADD(obs::names::kSnapshotWriteBytesTotal, *written);
  if (write_start_ns != 0) {
    LD_OBS_HIST_RECORD(obs::names::kSnapshotWriteMicros,
                       (LD_OBS_NOW_NS() - write_start_ns) / 1000);
  }
  return Status::Ok();
}

SnapshotStore::SnapshotStore(std::string dir, std::size_t keep_generations)
    : dir_(std::move(dir)),
      keep_generations_(std::max<std::size_t>(keep_generations, 2)) {}

std::string SnapshotStore::PathFor(std::uint64_t generation) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(generation), kSnapshotSuffix);
  return dir_ + "/" + name;
}

std::vector<std::uint64_t> SnapshotStore::Generations() const {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= std::strlen(kSnapshotPrefix) + std::strlen(kSnapshotSuffix) ||
        name.rfind(kSnapshotPrefix, 0) != 0 ||
        name.substr(name.size() - std::strlen(kSnapshotSuffix)) !=
            kSnapshotSuffix) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kSnapshotPrefix),
                    name.size() - std::strlen(kSnapshotPrefix) -
                        std::strlen(kSnapshotSuffix));
    char* end = nullptr;
    const std::uint64_t gen = std::strtoull(digits.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && gen > 0) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

Result<std::uint64_t> SnapshotStore::Write(
    std::span<const std::uint8_t> payload, std::uint64_t fingerprint) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return InternalError("snapshot: cannot create directory " + dir_ + ": " +
                         ec.message());
  }
  const std::vector<std::uint64_t> gens = Generations();
  const std::uint64_t next = gens.empty() ? 1 : gens.back() + 1;
  LD_TRY(WriteSnapshotFile(PathFor(next), payload, fingerprint));
  // Prune: keep the newest keep_generations_ (the new one included).
  if (gens.size() + 1 > keep_generations_) {
    const std::size_t drop = gens.size() + 1 - keep_generations_;
    for (std::size_t i = 0; i < drop && i < gens.size(); ++i) {
      fs::remove(PathFor(gens[i]), ec);
    }
  }
  return next;
}

Result<SnapshotStore::Loaded> SnapshotStore::LoadLatest(
    std::uint64_t expected_fingerprint) const {
  const std::vector<std::uint64_t> gens = Generations();
  Loaded loaded;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    // A structurally intact snapshot computed from different input (a
    // stale directory or a foreign partial) is as unusable as a torn
    // one, and falls back the same way.
    auto file = OpenFramedFile(PathFor(*it), kSnapshotFile,
                               expected_fingerprint);
    if (file.ok()) {
      loaded.file = std::move(*file);
      loaded.generation = *it;
      LD_OBS_COUNTER_ADD(obs::names::kSnapshotRestoresTotal, 1);
      return loaded;
    }
    // Counted per rejection (not batched on a successful load) so a
    // directory whose every generation is bad still shows up.
    ++loaded.rejected;
    LD_OBS_COUNTER_ADD(obs::names::kSnapshotRejectedTotal, 1);
  }
  return NotFoundError("snapshot: no valid snapshot in " + dir_ +
                       (loaded.rejected != 0
                            ? " (" + std::to_string(loaded.rejected) +
                                  " rejected as torn/corrupt/mismatched)"
                            : ""));
}

Status SnapshotStore::Clear() const {
  std::error_code ec;
  for (std::uint64_t gen : Generations()) {
    fs::remove(PathFor(gen), ec);
    if (ec) {
      return InternalError("snapshot: cannot remove " + PathFor(gen) + ": " +
                           ec.message());
    }
  }
  return Status::Ok();
}

}  // namespace ld
