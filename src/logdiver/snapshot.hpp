// The one persistence codec: a little-endian byte writer/reader, one
// framed-file container (magic | version | CRC | size | fingerprint |
// payload) written atomically and read through a memory mapping, and
// one columnar encoding for the record arrays every persisted state
// carries.  Analyzer snapshots, fleet partials, tenant snapshots and
// the parsed-bundle cache all go through it — the checkpoint half of
// the checkpoint-recovery pattern the tool applies to itself
// (DESIGN.md "Crash-tolerant streaming").
//
// A framed file is written atomically (tmp + fsync + rename) so a crash
// mid-write can never leave a half-written file under the final name; a
// torn or bit-flipped file is rejected by size/CRC validation and the
// loader falls back (to the previous generation, or to the text parse).
// The byte layout is documented in docs/FORMATS.md ("Framed file") and
// is the contract the version numbers guard.
//
// Serialization is deliberately exact: doubles round-trip through their
// IEEE-754 bit pattern, so a restored analyzer continues producing
// *bit-identical* metrics to an uninterrupted pass — the property
// bench/crash_campaign asserts cell by cell.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/intern.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "logdiver/block_reader.hpp"

namespace ld {

struct AppRun;
struct ErrorTuple;
struct TorqueRecord;
struct ParseStats;
struct IngestStats;
struct QuarantineEntry;
struct MetricsReport;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected).  This is the
/// checksum both the snapshot file trailer and the report fingerprints
/// use; Crc32("123456789") == 0xCBF43926.
std::uint32_t Crc32(const void* data, std::size_t size);
inline std::uint32_t Crc32(const std::vector<std::uint8_t>& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// Append-only little-endian byte sink.  All multi-byte integers are
/// written LE regardless of host order; doubles as their bit pattern.
class SnapshotWriter {
 public:
  void U8(std::uint8_t v) { buffer_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v);
  void Time(TimePoint t) { I64(t.unix_seconds()); }
  void Dur(Duration d) { I64(d.seconds()); }
  /// u32 length prefix + raw bytes.
  void Str(std::string_view s);
  /// Unprefixed raw bytes (the bulk column dumps of the parsed-bundle
  /// cache); the caller owns length framing.
  void Raw(const void* data, std::size_t size);
  /// LEB128 variable-length unsigned integer: 7 value bits per byte,
  /// high bit = continuation, little-endian groups.  1 byte for values
  /// < 128 — the workhorse of the bundle cache's compacted columns.
  void Varint(std::uint64_t v);
  /// Zigzag-mapped signed varint ((v << 1) ^ (v >> 63)), so small
  /// negative deltas stay small on disk.
  void VarintSigned(std::int64_t v);

  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  std::vector<std::uint8_t> TakeBytes() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Sequential reader over a snapshot payload.  Reading past the end (or
/// a length prefix past the end) latches an error status and returns
/// zero values; callers check `status()` once after a batch of reads
/// instead of per-field.  The CRC only proves the bytes are the ones
/// that were written, not that the writer was this build or honest: a
/// file crafted (or written by a buggy build) with a valid CRC can
/// still carry a lying count, so every decoded count that sizes an
/// allocation goes through CheckCount, and a failure here is a
/// rejection of the file, never a crash.
class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(std::span<const std::uint8_t> bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}

  std::uint8_t U8();
  bool Bool() { return U8() != 0; }
  std::uint32_t U32();
  std::uint64_t U64();
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  TimePoint Time() { return TimePoint(I64()); }
  Duration Dur() { return Duration(I64()); }
  std::string Str();
  /// Bulk copy of `size` raw bytes into `out`; zero-fills and latches
  /// an error when fewer remain.
  void Raw(void* out, std::size_t size);
  /// LEB128 unsigned varint; latches an error on truncation or on an
  /// encoding longer than 10 bytes (malformed input, not corruption —
  /// the CRC vouches for the bytes).
  std::uint64_t Varint();
  /// Zigzag-decoded signed varint.
  std::int64_t VarintSigned();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Bytes not yet consumed; 0 when fully read.
  std::size_t remaining() const { return size_ - pos_; }
  void Fail(std::string why);
  /// Vets a decoded element count before it sizes an allocation: false
  /// (with an error latched) when the reader already failed or `count`
  /// elements of at least `min_elem_bytes` each cannot fit in what is
  /// left, so a lying count fails the load instead of throwing
  /// std::bad_alloc.
  bool CheckCount(std::uint64_t count, std::size_t min_elem_bytes);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Status status_;
};

// --- shared struct serializers (used by the analyzer state hooks) ----

void SaveParseStats(SnapshotWriter& w, const ParseStats& s);
void LoadParseStats(SnapshotReader& r, ParseStats& s);
void SaveIngestStats(SnapshotWriter& w, const IngestStats& s);
void LoadIngestStats(SnapshotReader& r, IngestStats& s);
void SaveStatus(SnapshotWriter& w, const Status& s);
Status LoadStatus(SnapshotReader& r);
void SaveQuarantineEntry(SnapshotWriter& w, const QuarantineEntry& e);
void LoadQuarantineEntry(SnapshotReader& r, QuarantineEntry& e);
/// Smallest SaveQuarantineEntry encoding: source, line number and two
/// empty strings.
inline constexpr std::size_t kQuarantineEntryMinBytes = 1 + 8 + 4 + 4;

/// Serializes every field of a report (fractions, CI bounds, ingest
/// counters, all tables and series) into `w` — the basis of the
/// bit-identical equivalence check in bench/crash_campaign.
void SaveMetricsReport(SnapshotWriter& w, const MetricsReport& report);
/// Inverse of SaveMetricsReport: reads the exact field layout back.  A
/// loaded report re-serializes to the same bytes (FingerprintReport
/// equal) — the parsed-bundle cache depends on this round trip.
void LoadMetricsReport(SnapshotReader& r, MetricsReport& report);
/// CRC-32 over the full serialized report: two reports fingerprint
/// equal iff every number in them is bit-identical.
std::uint32_t FingerprintReport(const MetricsReport& report);
/// CRC-32 over the serialized ingest counters.
std::uint32_t FingerprintIngest(const IngestStats& stats);

// --- columnar record encoding ----------------------------------------
//
// The one encoding for persisted record arrays: the bundle cache's
// records and memoized-result sections, and the streaming analyzer's
// and coalescer's snapshot state.  Each field is written as its own
// column over all rows: run and tuple ids and epochs as zigzag-varint
// deltas, node lists as varint CSR, interned strings as a first-seen
// string table plus a u32 index column, torque records as fixed-width
// columns (docs/FORMATS.md "Columnar records").
// Arithmetic is done in uint64 (wraparound well-defined), so every
// round trip is exact for every 64-bit value.

namespace detail {
// One element through the LE integer writers (the big-endian path).
template <typename T>
void PutElement(SnapshotWriter& w, T v) {
  static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 1) {
    w.U8(std::bit_cast<std::uint8_t>(v));
  } else if constexpr (sizeof(T) == 4) {
    w.U32(std::bit_cast<std::uint32_t>(v));
  } else {
    w.U64(std::bit_cast<std::uint64_t>(v));
  }
}

template <typename T>
T GetElement(SnapshotReader& r) {
  static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 1) {
    return std::bit_cast<T>(r.U8());
  } else if constexpr (sizeof(T) == 4) {
    return std::bit_cast<T>(r.U32());
  } else {
    return std::bit_cast<T>(r.U64());
  }
}
}  // namespace detail

/// u64 count + the raw little-endian array.  On LE hosts (every target
/// this repo builds for) the dump and the load are single memcpys —
/// this is what makes a records hit decode at memory bandwidth.
template <typename T>
void PutPodColumn(SnapshotWriter& w, const std::vector<T>& col) {
  static_assert(std::is_trivially_copyable_v<T>);
  w.U64(col.size());
  if constexpr (std::endian::native == std::endian::little) {
    w.Raw(col.data(), col.size() * sizeof(T));
  } else {
    for (const T& v : col) detail::PutElement(w, v);
  }
}

template <typename T>
void GetPodColumn(SnapshotReader& r, std::vector<T>& col) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t n = r.U64();
  if (!r.CheckCount(n, sizeof(T))) return;
  col.resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    r.Raw(col.data(), col.size() * sizeof(T));
  } else {
    for (T& v : col) v = detail::GetElement<T>(r);
  }
}

/// Interned-symbol column over `rows` (any iterable), `get(row)`
/// naming each row's symbol.  Symbol ids are process-local
/// (intern.hpp), so the *strings* are the on-disk identity and the
/// loader re-interns them.
template <typename Rows, typename GetFn>
void PutSymbolColumn(SnapshotWriter& w, const Rows& rows, GetFn get) {
  std::unordered_map<std::uint32_t, std::uint32_t> seen;
  std::vector<Symbol> table;
  std::vector<std::uint32_t> idx;
  idx.reserve(rows.size());
  for (const auto& row : rows) {
    const Symbol s = get(row);
    const auto [it, inserted] =
        seen.emplace(s.id(), static_cast<std::uint32_t>(table.size()));
    if (inserted) table.push_back(s);
    idx.push_back(it->second);
  }
  w.U32(static_cast<std::uint32_t>(table.size()));
  for (const Symbol s : table) w.Str(s.view());
  PutPodColumn(w, idx);
}

/// Inverse of PutSymbolColumn: calls `set(i, symbol)` for each of the
/// `n` rows.
template <typename SetFn>
void GetSymbolColumn(SnapshotReader& r, std::size_t n, SetFn set) {
  const std::uint32_t table_size = r.U32();
  if (!r.CheckCount(table_size, sizeof(std::uint32_t))) return;
  std::vector<Symbol> table;
  table.reserve(table_size);
  for (std::uint32_t i = 0; i < table_size && r.ok(); ++i) {
    table.push_back(Intern(r.Str()));
  }
  std::vector<std::uint32_t> idx;
  GetPodColumn(r, idx);
  if (!r.ok()) return;
  if (idx.size() != n) {
    r.Fail("symbol column length mismatch");
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (idx[i] >= table.size()) {
      r.Fail("symbol index out of range");
      return;
    }
    set(i, table[idx[i]]);
  }
}

/// Record columns.  The writers take every container the persisted
/// states keep their records in; a map is written as its values only —
/// its keys are each record's own id (jobid, apid) and the loader
/// re-keys from the decoded records.  The readers always decode into a
/// vector, vetting the row count against the bytes left.
void PutTorque(SnapshotWriter& w, const std::vector<TorqueRecord>& recs);
void PutTorque(SnapshotWriter& w,
               const std::map<std::uint64_t, TorqueRecord>& by_jobid);
void GetTorque(SnapshotReader& r, std::vector<TorqueRecord>& recs);
void PutRuns(SnapshotWriter& w, const std::vector<AppRun>& runs);
void PutRuns(SnapshotWriter& w, const std::deque<AppRun>& runs);
void PutRuns(SnapshotWriter& w,
             const std::map<std::uint64_t, AppRun>& by_apid);
void GetRuns(SnapshotReader& r, std::vector<AppRun>& runs);
void PutTuples(SnapshotWriter& w, const std::vector<ErrorTuple>& tuples);
void PutTuples(SnapshotWriter& w, const std::deque<ErrorTuple>& tuples);
void PutTuples(SnapshotWriter& w, const std::vector<const ErrorTuple*>& tuples);
void GetTuples(SnapshotReader& r, std::vector<ErrorTuple>& tuples);

// --- framed files ------------------------------------------------------

/// Identifies one kind of framed file: an 8-byte magic and the framing
/// version this build speaks.  Distinct magics make a file of one kind
/// offered to the other's loader fail the very first header check.
struct FramedKind {
  std::array<std::uint8_t, 8> magic;
  std::uint32_t version;
};

/// Analyzer snapshots, fleet partials and tenant snapshots: "LDSNAP" +
/// 0x1A (stops accidental text-mode readers) + a zero byte.  Version 2
/// added the input fingerprint to the header, making every snapshot a
/// self-describing unit: a loader can reject a file that belongs to a
/// different bundle or bundle partition without parsing the payload.
/// The analyzer payload carries its own version (see streaming.cpp).
inline constexpr std::uint32_t kSnapshotFileVersion = 2;
inline constexpr FramedKind kSnapshotFile{
    {'L', 'D', 'S', 'N', 'A', 'P', 0x1A, 0x00}, kSnapshotFileVersion};

/// magic | u32 version | u32 payload CRC | u64 payload size | u64 input
/// fingerprint, all little-endian.
inline constexpr std::size_t kFramedHeaderSize = 8 + 4 + 4 + 8 + 8;

/// Writes `kind`'s header and the concatenated `payload` parts to
/// `path` atomically: the bytes go to `path + ".tmp.<pid>"`, are
/// fsync'd, and the tmp is renamed over `path`.  A crash at any point
/// leaves either the old file or no file — never a torn one under the
/// final name.  The parts are checksummed and written in place, never
/// copied into one framed buffer.  `fingerprint` identifies the input
/// the payload was computed from (LinesFingerprint, TenantFingerprint);
/// 0 = unspecified.  Returns the file size.
Result<std::uint64_t> WriteFramedFile(
    const std::string& path, const FramedKind& kind,
    std::initializer_list<std::span<const std::uint8_t>> payload,
    std::uint64_t fingerprint);

/// A framed file whose header and CRC passed validation.  `payload`
/// aliases the mapping, which lives (and stays valid) as long as this
/// object does.
struct FramedFile {
  MappedFile file;
  std::span<const std::uint8_t> payload;
  /// The header's input fingerprint.
  std::uint64_t fingerprint = 0;
};

/// Maps and validates a framed file: magic, version, declared size
/// against file size, payload CRC, and — when `expected_fingerprint` is
/// non-zero — the header fingerprint.  Any mismatch is a ParseError (a
/// torn, corrupt, foreign or stale file must never be silently used);
/// a missing file is NotFound.
Result<FramedFile> OpenFramedFile(const std::string& path,
                                  const FramedKind& kind,
                                  std::uint64_t expected_fingerprint = 0);

/// WriteFramedFile of one snapshot-kind payload, with the snapshot
/// write span and counters.
Status WriteSnapshotFile(const std::string& path,
                         std::span<const std::uint8_t> payload,
                         std::uint64_t fingerprint = 0);

/// Generation-managed snapshot directory: snapshot-000001.ldsnap,
/// snapshot-000002.ldsnap, ...  Writes always create the next
/// generation; loads walk newest-first past invalid files so a torn
/// final snapshot degrades to the previous one instead of failing.
class SnapshotStore {
 public:
  /// `keep_generations` older snapshots are retained after each write
  /// (min 2, so the newest generation always has a fallback).
  explicit SnapshotStore(std::string dir, std::size_t keep_generations = 2);

  /// Creates the directory if needed and writes the next generation,
  /// stamping `fingerprint` into the file header (0 = unspecified).
  Result<std::uint64_t> Write(std::span<const std::uint8_t> payload,
                              std::uint64_t fingerprint = 0);

  struct Loaded {
    /// The mapped file; `file.payload` is the snapshot payload and
    /// `file.fingerprint` its header fingerprint.
    FramedFile file;
    std::uint64_t generation = 0;
    /// Newer generations that failed validation and were skipped.
    std::uint64_t rejected = 0;
  };
  /// Newest valid snapshot; NotFound when the directory holds none.
  /// A non-zero `expected_fingerprint` additionally rejects snapshots
  /// whose header fingerprint differs — a checkpoint of a *different*
  /// bundle (the directory was reused, or a partial from another shard
  /// partition landed here) is as unusable as a torn one, and falls
  /// back the same way.  Every rejected generation, torn or
  /// mismatched, bumps `ld.snapshot.rejected_total`.
  Result<Loaded> LoadLatest(std::uint64_t expected_fingerprint = 0) const;

  /// Existing generation numbers, ascending.
  std::vector<std::uint64_t> Generations() const;
  /// Deletes every snapshot (fresh-start semantics for --no-resume).
  Status Clear() const;

  const std::string& dir() const { return dir_; }
  std::string PathFor(std::uint64_t generation) const;

 private:
  std::string dir_;
  std::size_t keep_generations_;
};

}  // namespace ld
