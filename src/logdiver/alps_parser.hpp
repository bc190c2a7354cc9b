// Parser for ALPS (Application Level Placement Scheduler) logs.
//
// Three record kinds:
//   <iso-ts> apsched[pid]: placeApp apid=A jobid=J user=U cmd=C nodect=N nids=R
//   <iso-ts> apsys[pid]:   apid=A exited, status=S signal=G
//   <iso-ts> apsys[pid]:   apid=A killed, reason=node_failure nid=N
//
// The per-line parse is pure, so batch parsing is chunk-parallel (see
// chunked_parse.hpp): chunks parse on any thread, the ordered reduction
// makes the output bit-identical to a sequential pass.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "logdiver/chunked_parse.hpp"
#include "logdiver/records.hpp"

namespace ld {

/// What a fleet worker needs to know about an ALPS line it does not
/// parse: the run it belongs to and whether it places or terminates
/// that run.  The replay loader computes one per line in the same
/// ParseLine call that claims the line (resume.hpp LoadReplayInput), so
/// a worker can run the lifecycle of a run it does not own without
/// touching the text.  One u64: apid << 2 | kind, 0 for "not a record"
/// (malformed and skipped lines, and apids too large to pack — those
/// are parsed like any keyless line).
class AlpsKey {
 public:
  AlpsKey() = default;
  /// The key of a parsed record.
  static AlpsKey Of(const AlpsRecord& record);
  static AlpsKey FromBits(std::uint64_t bits) { return AlpsKey(bits); }

  std::uint64_t bits() const { return bits_; }
  bool is_record() const { return bits_ != 0; }
  bool placement() const { return (bits_ & 3) == kPlaceTag; }
  ApId apid() const { return bits_ >> 2; }

 private:
  static constexpr std::uint64_t kPlaceTag = 1;
  static constexpr std::uint64_t kEndTag = 2;
  explicit AlpsKey(std::uint64_t bits) : bits_(bits) {}
  std::uint64_t bits_ = 0;
};

class AlpsParser {
 public:
  using Chunk = ParsedChunk<AlpsRecord>;

  Result<std::optional<AlpsRecord>> ParseLine(std::string_view line);

  /// Parses a slice of lines into a private chunk; safe to call from any
  /// thread.  `first_line_no` is the 1-based global number of lines[0].
  static Chunk ParseChunk(std::span<const std::string_view> lines,
                          std::uint64_t first_line_no,
                          const QuarantineConfig* capture);

  /// Folds chunks — in order — into this parser's stats and `sink`.
  std::vector<AlpsRecord> ReduceChunks(std::vector<Chunk>&& chunks,
                                       QuarantineSink* sink = nullptr);

  /// Parses many lines, chunked across `pool` (inline when null).
  /// Rejected lines are captured in `sink` when one is provided.
  std::vector<AlpsRecord> ParseLines(
      std::span<const std::string_view> lines, QuarantineSink* sink = nullptr,
      ThreadPool* pool = nullptr,
      std::size_t chunk_lines = kDefaultParseChunkLines);

  /// Legacy overload for owning line vectors; single-threaded.
  std::vector<AlpsRecord> ParseLines(const std::vector<std::string>& lines,
                                     QuarantineSink* sink = nullptr);

  /// Counts a record line the caller keyed instead of parsing (a fleet
  /// worker's unowned runs), so the stats match a full parse.
  void CountKeyedRecord() {
    ++stats_.lines;
    ++stats_.records;
  }

  const ParseStats& stats() const { return stats_; }
  /// Checkpoint-restore hook: the parser's only cross-line state is its
  /// counters.
  void RestoreStats(const ParseStats& stats) { stats_ = stats; }

 private:
  ParseStats stats_;
};

}  // namespace ld
