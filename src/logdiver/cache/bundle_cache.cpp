#include "logdiver/cache/bundle_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/obs/names.hpp"
#include "common/obs/obs.hpp"

namespace ld::cache {
namespace {

// --- keys ------------------------------------------------------------

// FNV-1a's prime with an offset basis one digit short of FNV-1a-64's
// 14695981039346656037 — so not FNV-1a-64, and not bit-compatible with
// the manifest/rng/ledger hashes.  Kept as is: LinesFingerprint values
// are persisted in snapshot/partial headers and cache file names
// (bundle_cache_test pins them); the service's TenantFingerprint shares
// the basis.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

// Word-folded FNV variant for bulk line content: folds eight input
// bytes per multiply instead of one.  Not bit-compatible with the
// byte-at-a-time mix above, which is fine — fingerprints are always
// recomputed at runtime on both the store and the load side, so
// changing the mix only ever turns old entries and snapshots into safe
// rejections (and must update the values bundle_cache_test pins).  The
// bulk path is little-endian only; big-endian hosts take the bytewise
// loop (and a cache entry shared across endiannesses rejects, which is
// correct).
void FnvMixBulk(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= size; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, bytes + i, 8);
      h ^= w;
      h *= kFnvPrime;
    }
  }
  for (; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void MixU64(std::uint64_t& h, std::uint64_t v) { FnvMix(h, &v, sizeof(v)); }
void MixI64(std::uint64_t& h, std::int64_t v) {
  MixU64(h, static_cast<std::uint64_t>(v));
}

constexpr std::uint8_t kKindBundle = 1;
constexpr std::uint8_t kKindClaims = 2;

/// Publishes one cache entry (framed, atomic; see WriteFramedFile).
Status WriteEntry(
    const std::string& dir, const std::string& path, std::uint64_t fingerprint,
    std::initializer_list<std::span<const std::uint8_t>> payload) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return InternalError("bundle cache: cannot create " + dir + ": " +
                         ec.message());
  }
  auto written = WriteFramedFile(path, kBundleCacheFile, payload, fingerprint);
  if (!written.ok()) {
    return InternalError("bundle cache: " + written.status().message());
  }
  LD_OBS_COUNTER_ADD(obs::names::kCacheWritesTotal, 1);
  LD_OBS_COUNTER_ADD(obs::names::kCacheWriteBytesTotal, *written);
  return Status::Ok();
}

// --- parsed-records section ------------------------------------------

void PutAlps(SnapshotWriter& w, const std::vector<AlpsRecord>& recs) {
  const std::size_t n = recs.size();
  w.U64(n);
  for (const auto& rec : recs) w.U8(static_cast<std::uint8_t>(rec.kind));
  for (const auto& rec : recs) w.I64(rec.time.unix_seconds());
  for (const auto& rec : recs) w.U64(rec.apid);
  for (const auto& rec : recs) w.U64(rec.jobid);
  PutSymbolColumn(w, recs, [](const AlpsRecord& rec) { return rec.user; });
  PutSymbolColumn(w, recs,
                  [](const AlpsRecord& rec) { return rec.command; });
  for (const auto& rec : recs) w.U32(rec.nodect);
  // Node placements as CSR: offsets + one packed entry array.
  std::vector<std::uint64_t> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  std::vector<NodeIndex> entries;
  for (const auto& rec : recs) {
    entries.insert(entries.end(), rec.nids.begin(), rec.nids.end());
    offsets.push_back(entries.size());
  }
  PutPodColumn(w, offsets);
  PutPodColumn(w, entries);
  for (const auto& rec : recs) w.I32(rec.exit_code);
  for (const auto& rec : recs) w.I32(rec.exit_signal);
  for (const auto& rec : recs) w.Str(rec.kill_reason);
  for (const auto& rec : recs) w.U32(rec.failed_nid);
}

void GetAlps(SnapshotReader& r, std::vector<AlpsRecord>& recs) {
  const std::uint64_t n = r.U64();
  // Fixed-width columns, a u32 per symbol, a u64 CSR offset, and the
  // kill_reason length prefix.
  if (!r.CheckCount(n, 1 + 3 * 8 + 2 * 4 + 4 + 8 + 4 * 4)) return;
  recs.resize(n);
  for (auto& rec : recs) rec.kind = static_cast<AlpsRecord::Kind>(r.U8());
  for (auto& rec : recs) rec.time = TimePoint(r.I64());
  for (auto& rec : recs) rec.apid = r.U64();
  for (auto& rec : recs) rec.jobid = r.U64();
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].user = s; });
  GetSymbolColumn(r, n, [&](std::size_t i, Symbol s) { recs[i].command = s; });
  for (auto& rec : recs) rec.nodect = r.U32();
  std::vector<std::uint64_t> offsets;
  std::vector<NodeIndex> entries;
  GetPodColumn(r, offsets);
  GetPodColumn(r, entries);
  if (!r.ok()) return;
  if (offsets.size() != n + 1 || offsets[0] != 0 ||
      offsets.back() != entries.size()) {
    r.Fail("alps nid CSR is inconsistent");
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      r.Fail("alps nid CSR is inconsistent");
      return;
    }
    recs[i].nids.assign(entries.begin() + offsets[i],
                        entries.begin() + offsets[i + 1]);
  }
  for (auto& rec : recs) rec.exit_code = r.I32();
  for (auto& rec : recs) rec.exit_signal = r.I32();
  for (auto& rec : recs) rec.kill_reason = r.Str();
  for (auto& rec : recs) rec.failed_nid = r.U32();
}

void PutErrorColumns(SnapshotWriter& w, const ErrorColumns& cols) {
  w.U64(cols.size());
  PutPodColumn(w, cols.time);
  PutPodColumn(w, cols.category);
  PutPodColumn(w, cols.severity);
  PutPodColumn(w, cols.scope);
  PutPodColumn(w, cols.source);
  PutSymbolColumn(w, cols.location, [](Symbol s) { return s; });
  PutPodColumn(w, cols.recovered_set);
  PutPodColumn(w, cols.recovered);
}

void GetErrorColumns(SnapshotReader& r, ErrorColumns& cols) {
  const std::uint64_t n = r.U64();
  if (!r.ok()) return;
  GetPodColumn(r, cols.time);
  GetPodColumn(r, cols.category);
  GetPodColumn(r, cols.severity);
  GetPodColumn(r, cols.scope);
  GetPodColumn(r, cols.source);
  if (!r.ok()) return;
  cols.location.resize(cols.time.size());
  GetSymbolColumn(r, cols.time.size(),
                  [&](std::size_t i, Symbol s) { cols.location[i] = s; });
  GetPodColumn(r, cols.recovered_set);
  GetPodColumn(r, cols.recovered);
  if (!r.ok()) return;
  if (cols.time.size() != n || cols.category.size() != n ||
      cols.severity.size() != n || cols.scope.size() != n ||
      cols.source.size() != n || cols.recovered_set.size() != n ||
      cols.recovered.size() != n) {
    r.Fail("error columns have mismatched lengths");
  }
}

void DecodeParsed(SnapshotReader& r, ParsedLogs& parsed) {
  GetTorque(r, parsed.torque);
  GetAlps(r, parsed.alps);
  GetErrorColumns(r, parsed.errors);
  LoadParseStats(r, parsed.torque_stats);
  LoadParseStats(r, parsed.alps_stats);
  LoadParseStats(r, parsed.syslog_stats);
  LoadParseStats(r, parsed.hwerr_stats);
  parsed.sink.LoadState(r);
}

// --- memoized-result section -----------------------------------------

void PutClassified(SnapshotWriter& w, const std::vector<ClassifiedRun>& cls) {
  w.U64(cls.size());
  for (const auto& c : cls) w.U32(c.run_index);
  for (const auto& c : cls) w.U8(static_cast<std::uint8_t>(c.outcome));
  for (const auto& c : cls) w.U8(static_cast<std::uint8_t>(c.cause));
  for (const auto& c : cls) w.U64(c.tuple_id);
}

void GetClassified(SnapshotReader& r, std::vector<ClassifiedRun>& cls) {
  const std::uint64_t n = r.U64();
  if (!r.CheckCount(n, 4 + 1 + 1 + 8)) return;
  cls.resize(n);
  for (auto& c : cls) c.run_index = r.U32();
  for (auto& c : cls) c.outcome = static_cast<AppOutcome>(r.U8());
  for (auto& c : cls) c.cause = static_cast<ErrorCategory>(r.U8());
  for (auto& c : cls) c.tuple_id = r.U64();
}

void EncodeResult(SnapshotWriter& w, const AnalysisResult& result) {
  SaveParseStats(w, result.torque_stats);
  SaveParseStats(w, result.alps_stats);
  SaveParseStats(w, result.syslog_stats);
  SaveParseStats(w, result.hwerr_stats);
  w.U64(result.reconstruct_stats.placements);
  w.U64(result.reconstruct_stats.terminations);
  w.U64(result.reconstruct_stats.runs);
  w.U64(result.reconstruct_stats.missing_termination);
  w.U64(result.reconstruct_stats.orphan_terminations);
  w.U64(result.reconstruct_stats.missing_job);
  w.U64(result.reconstruct_stats.mixed_node_types);
  w.U64(result.reconstruct_stats.duplicate_placements);
  w.U64(result.reconstruct_stats.duplicate_terminations);
  w.U64(result.coalesce_stats.input_events);
  w.U64(result.coalesce_stats.tuples);
  w.U64(result.coalesce_stats.unresolved_locations);
  SaveIngestStats(w, result.ingest);
  w.U64(result.quarantine.size());
  for (const auto& entry : result.quarantine) SaveQuarantineEntry(w, entry);
  PutRuns(w, result.runs);
  PutClassified(w, result.classified);
  PutTuples(w, result.tuples);
  SaveMetricsReport(w, result.metrics);
}

void DecodeResult(SnapshotReader& r, AnalysisResult& result) {
  LoadParseStats(r, result.torque_stats);
  LoadParseStats(r, result.alps_stats);
  LoadParseStats(r, result.syslog_stats);
  LoadParseStats(r, result.hwerr_stats);
  result.reconstruct_stats.placements = r.U64();
  result.reconstruct_stats.terminations = r.U64();
  result.reconstruct_stats.runs = r.U64();
  result.reconstruct_stats.missing_termination = r.U64();
  result.reconstruct_stats.orphan_terminations = r.U64();
  result.reconstruct_stats.missing_job = r.U64();
  result.reconstruct_stats.mixed_node_types = r.U64();
  result.reconstruct_stats.duplicate_placements = r.U64();
  result.reconstruct_stats.duplicate_terminations = r.U64();
  result.coalesce_stats.input_events = r.U64();
  result.coalesce_stats.tuples = r.U64();
  result.coalesce_stats.unresolved_locations = r.U64();
  LoadIngestStats(r, result.ingest);
  const std::uint64_t quarantined = r.U64();
  if (!r.CheckCount(quarantined, kQuarantineEntryMinBytes)) return;
  result.quarantine.resize(quarantined);
  for (auto& entry : result.quarantine) LoadQuarantineEntry(r, entry);
  GetRuns(r, result.runs);
  GetClassified(r, result.classified);
  GetTuples(r, result.tuples);
  LoadMetricsReport(r, result.metrics);
}

/// Marks an entry as recently used.  mtime is the LRU recency signal
/// EnforceCap sorts by; best-effort — a failed touch only makes the
/// entry *look* older, which can cost a re-parse but never correctness.
void TouchEntry(const std::string& path) {
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);
}

std::string HexFingerprint(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buf, 16);
}

}  // namespace

std::uint64_t LinesFingerprint(const LogSetView& lines,
                               std::uint32_t shard_count) {
  const std::vector<std::string_view>* sources[kNumLogSources] = {
      &lines.torque, &lines.alps, &lines.syslog, &lines.hwerr};
  std::uint64_t h = kFnvOffset;
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    const unsigned char tag = static_cast<unsigned char>(0xF0 + s);
    FnvMix(h, &tag, 1);
    for (const std::string_view line : *sources[s]) {
      FnvMixBulk(h, line.data(), line.size());
      const unsigned char nl = '\n';
      FnvMix(h, &nl, 1);
    }
  }
  const std::uint32_t count = shard_count;
  FnvMix(h, &count, sizeof(count));
  // 0 is reserved for "unspecified" in file headers.
  return h == 0 ? 1 : h;
}

std::uint64_t ParseKey(const LogDiverConfig& config) {
  std::uint64_t h = kFnvOffset;
  MixI64(h, config.syslog_base_year);
  MixU64(h, config.ingest.quarantine.max_entries);
  MixU64(h, config.ingest.quarantine.max_line_bytes);
  return h;
}

std::uint64_t AnalysisKey(const Machine& machine,
                          const LogDiverConfig& config) {
  std::uint64_t h = kFnvOffset;
  MixU64(h, machine.node_count());
  MixU64(h, machine.xe_count());
  MixU64(h, machine.xk_count());
  MixI64(h, config.coalesce.tupling_window.seconds());
  MixI64(h, config.correlator.attribution_before.seconds());
  MixI64(h, config.correlator.attribution_after.seconds());
  MixU64(h, config.correlator.category_before.size());
  for (const auto& [category, window] : config.correlator.category_before) {
    MixU64(h, static_cast<std::uint64_t>(category));
    MixI64(h, window.seconds());
  }
  MixI64(h, config.correlator.incident_slack.seconds());
  MixI64(h, config.correlator.walltime_tolerance.seconds());
  for (const auto* buckets :
       {&config.metrics.xe_scale_buckets, &config.metrics.xk_scale_buckets}) {
    MixU64(h, buckets->size());
    for (const auto& [lo, hi] : *buckets) {
      MixU64(h, lo);
      MixU64(h, hi);
    }
  }
  MixU64(h, config.shard.index);
  MixU64(h, config.shard.count);
  MixU64(h, static_cast<std::uint64_t>(config.ingest.policy));
  MixU64(h, config.ingest.budget.min_malformed);
  FnvMix(h, &config.ingest.budget.max_malformed_fraction, sizeof(double));
  return h;
}

CacheKeys MakeKeys(const LogSetView& lines, const Machine& machine,
                   const LogDiverConfig& config) {
  CacheKeys keys;
  keys.input_fingerprint = LinesFingerprint(lines, 0);
  keys.parse_key = ParseKey(config);
  keys.analysis_key = AnalysisKey(machine, config);
  return keys;
}

BundleCache::BundleCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  // Startup trim: a directory left over-cap by a previous run (or a
  // smaller --bundle-cache-max-mb than last time) is brought under the
  // cap before any entry is served.
  EnforceCap();
}

void BundleCache::EnforceCap() const {
  if (max_bytes_ == 0 || dir_.empty()) return;
  namespace fs = std::filesystem;
  struct Candidate {
    fs::path path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<Candidate> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(dir_, ec)) {
    if (ec) return;  // directory missing or unreadable: nothing to trim
    // Only published cache entries count against the cap; in-flight
    // .tmp.<pid> files are transient and owned by their writer.
    if (item.path().extension() != ".ldpbc") continue;
    std::error_code item_ec;
    if (!item.is_regular_file(item_ec) || item_ec) continue;
    Candidate c;
    c.path = item.path();
    c.size = item.file_size(item_ec);
    if (item_ec) continue;
    c.mtime = item.last_write_time(item_ec);
    if (item_ec) continue;
    total += c.size;
    entries.push_back(std::move(c));
  }
  if (total <= max_bytes_) return;
  std::sort(entries.begin(), entries.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;  // deterministic tie-break
            });
  for (const Candidate& victim : entries) {
    if (total <= max_bytes_) break;
    std::error_code rm_ec;
    // unlink is atomic: a reader that already mapped the file keeps a
    // valid mapping; a later reader sees a clean miss.  A concurrent
    // writer can republish the name — that new entry is complete and
    // valid, so the worst case is an extra eviction pass.  A victim a
    // concurrent pass already removed is freed all the same; not
    // counting it made two racing passes evict every entry.
    const bool removed = fs::remove(victim.path, rm_ec);
    if (rm_ec) continue;
    total -= victim.size;
    if (removed) LD_OBS_COUNTER_ADD(obs::names::kCacheEvictedTotal, 1);
  }
}

std::string BundleCache::BundlePath(std::uint64_t input_fingerprint) const {
  return dir_ + "/bundle-" + HexFingerprint(input_fingerprint) + ".ldpbc";
}

std::string BundleCache::ClaimsPath(std::uint64_t input_fingerprint) const {
  return dir_ + "/claims-" + HexFingerprint(input_fingerprint) + ".ldpbc";
}

Result<LoadedEntry> BundleCache::Load(const CacheKeys& keys) const {
  const std::string path = BundlePath(keys.input_fingerprint);
  const std::uint64_t load_start_ns = LD_OBS_NOW_NS();
  if (!std::filesystem::exists(path)) {
    LD_OBS_COUNTER_ADD(obs::names::kCacheMissesTotal, 1);
    return NotFoundError("bundle cache: no entry at " + path);
  }
  const auto reject = [](Status why) {
    LD_OBS_COUNTER_ADD(obs::names::kCacheRejectedTotal, 1);
    return Status(StatusCode::kParseError,
                  "bundle cache: " + why.message() + " — entry rejected, "
                  "falling back to the text parse");
  };
  auto entry =
      OpenFramedFile(path, kBundleCacheFile, keys.input_fingerprint);
  if (!entry.ok()) return reject(entry.status());
  const std::span<const std::uint8_t> payload = entry->payload;
  SnapshotReader head(payload);
  const std::uint8_t kind = head.U8();
  if (head.ok() && kind != kKindBundle) {
    head.Fail("entry kind " + std::to_string(kind) + " is not a bundle");
  }
  const std::uint64_t parse_key = head.U64();
  if (head.ok() && parse_key != keys.parse_key) {
    head.Fail(path + " was written under a different parse configuration");
  }
  const std::uint64_t records_len = head.U64();
  if (head.ok() && records_len > head.remaining()) {
    head.Fail(path + " declares a records section past its payload");
  }
  if (!head.ok()) return reject(head.status());

  // head has consumed kind + parse_key + records_len: the records
  // section starts right here, the result section right after it.
  const std::size_t records_at = payload.size() - head.remaining();
  SnapshotReader records(payload.subspan(records_at, records_len));
  SnapshotReader tail(payload.subspan(records_at + records_len));

  LoadedEntry out;
  const bool has_result = tail.Bool();
  const std::uint64_t analysis_key = has_result ? tail.U64() : 0;
  if (!tail.ok()) return reject(tail.status());
  if (has_result && analysis_key == keys.analysis_key) {
    // Full hit: decode only the memoized result, never the records.
    AnalysisResult result;
    DecodeResult(tail, result);
    if (!tail.ok()) return reject(tail.status());
    out.result = std::move(result);
    LD_OBS_COUNTER_ADD(obs::names::kCacheHitsTotal, 1);
  } else {
    DecodeParsed(records, out.parsed);
    if (!records.ok()) return reject(records.status());
    LD_OBS_COUNTER_ADD(obs::names::kCacheRecordHitsTotal, 1);
  }
  if (load_start_ns != 0) {
    LD_OBS_HIST_RECORD(obs::names::kCacheLoadMicros,
                       (LD_OBS_NOW_NS() - load_start_ns) / 1000);
  }
  TouchEntry(path);
  return out;
}

std::vector<std::uint8_t> BundleCache::EncodeParsed(const ParsedLogs& parsed) {
  SnapshotWriter w;
  PutTorque(w, parsed.torque);
  PutAlps(w, parsed.alps);
  PutErrorColumns(w, parsed.errors);
  SaveParseStats(w, parsed.torque_stats);
  SaveParseStats(w, parsed.alps_stats);
  SaveParseStats(w, parsed.syslog_stats);
  SaveParseStats(w, parsed.hwerr_stats);
  parsed.sink.SaveState(w);
  return w.TakeBytes();
}

Status BundleCache::Store(const CacheKeys& keys,
                          const std::vector<std::uint8_t>& parsed_bytes,
                          const AnalysisResult& result) const {
  // Three payload parts written in place: the records section is the
  // caller's buffer, never copied into the entry.
  SnapshotWriter head;
  head.U8(kKindBundle);
  head.U64(keys.parse_key);
  head.U64(parsed_bytes.size());
  SnapshotWriter tail;
  tail.Bool(true);
  tail.U64(keys.analysis_key);
  EncodeResult(tail, result);
  LD_TRY(WriteEntry(dir_, BundlePath(keys.input_fingerprint),
                    keys.input_fingerprint,
                    {head.bytes(), parsed_bytes, tail.bytes()}));
  EnforceCap();
  return Status::Ok();
}

Result<ReplayKeys> BundleCache::LoadClaims(
    std::uint64_t input_fingerprint, int base_year,
    const std::array<std::size_t, kNumLogSources>& line_counts) const {
  const std::string path = ClaimsPath(input_fingerprint);
  if (!std::filesystem::exists(path)) {
    LD_OBS_COUNTER_ADD(obs::names::kCacheMissesTotal, 1);
    return NotFoundError("bundle cache: no claims entry at " + path);
  }
  const auto reject = [](Status why) {
    LD_OBS_COUNTER_ADD(obs::names::kCacheRejectedTotal, 1);
    return Status(StatusCode::kParseError,
                  "bundle cache: " + why.message() + " — claims entry "
                  "rejected, reparsing claimed times");
  };
  auto entry = OpenFramedFile(path, kBundleCacheFile, input_fingerprint);
  if (!entry.ok()) return reject(entry.status());
  SnapshotReader r(entry->payload);
  const std::uint8_t kind = r.U8();
  if (r.ok() && kind != kKindClaims) {
    r.Fail("entry kind " + std::to_string(kind) + " is not a claims entry");
  }
  const std::int32_t entry_year = r.I32();
  if (r.ok() && entry_year != base_year) {
    r.Fail(path + " was written under base year " +
           std::to_string(entry_year));
  }
  ReplayKeys out;
  for (std::size_t s = 0; s < kNumLogSources && r.ok(); ++s) {
    std::vector<std::int64_t> column;
    GetPodColumn(r, column);
    if (!r.ok()) break;
    if (column.size() != line_counts[s]) {
      r.Fail(path + " claims column " + std::to_string(s) +
             " does not match the bundle's line count");
      break;
    }
    out.claimed[s].reserve(column.size());
    for (const std::int64_t t : column) out.claimed[s].push_back(TimePoint(t));
  }
  std::vector<std::uint64_t> keys;
  if (r.ok()) GetPodColumn(r, keys);
  if (r.ok() && keys.size() !=
                    line_counts[static_cast<std::size_t>(LogSource::kAlps)]) {
    r.Fail(path + " ALPS key column does not match the bundle's line count");
  }
  if (!r.ok()) return reject(r.status());
  out.alps.reserve(keys.size());
  for (const std::uint64_t bits : keys) out.alps.push_back(AlpsKey::FromBits(bits));
  LD_OBS_COUNTER_ADD(obs::names::kCacheHitsTotal, 1);
  TouchEntry(path);
  return out;
}

Status BundleCache::StoreClaims(std::uint64_t input_fingerprint,
                                int base_year, const ReplayKeys& keys) const {
  SnapshotWriter w;
  w.U8(kKindClaims);
  w.I32(base_year);
  for (const auto& column : keys.claimed) {
    std::vector<std::int64_t> seconds;
    seconds.reserve(column.size());
    for (const TimePoint t : column) seconds.push_back(t.unix_seconds());
    PutPodColumn(w, seconds);
  }
  std::vector<std::uint64_t> bits;
  bits.reserve(keys.alps.size());
  for (const AlpsKey key : keys.alps) bits.push_back(key.bits());
  PutPodColumn(w, bits);
  LD_TRY(WriteEntry(dir_, ClaimsPath(input_fingerprint), input_fingerprint,
                    {w.bytes()}));
  EnforceCap();
  return Status::Ok();
}

}  // namespace ld::cache
