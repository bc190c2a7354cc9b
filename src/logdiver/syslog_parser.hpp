// Parser for RFC3164-style syslog RAS streams.
//
// Two field-study realities are handled here:
//  1. Classic syslog timestamps carry no year ("Apr  1 02:10:02").  The
//     parser reconstructs the year from a configured campaign start year
//     and month-rollover detection (timestamps are monotone per stream;
//     when the month moves backwards across a December/January boundary
//     the year is advanced).
//  2. Lustre incidents are reported as an error line when the service
//     degrades and a recovery line when it returns.  The parser keeps no
//     incident state: an error line becomes a fatal system-scope record
//     and a recovery line a system-scope record with `recovered` set to
//     its own time.  The coalescer pairs them (coalesce.hpp), so every
//     execution mode applies one incident rule.
//
// The year is the only cross-line state, so the chunk-parallel path is
// split in two: ParseChunk (any thread) emits *year-relative*
// pre-records — calendar fields plus the rollover count within the
// chunk — and ReduceChunks (owning thread, chunks in order) resolves
// absolute years across chunk boundaries.  The result is bit-identical
// to the line-at-a-time path at any thread count or chunk size (see
// DESIGN.md "Parallel ingestion").
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "logdiver/chunked_parse.hpp"
#include "logdiver/records.hpp"

namespace ld {

class SyslogParser {
 public:
  /// `base_year` is the calendar year of the first line in the stream.
  explicit SyslogParser(int base_year);

  /// Parses one line into the record ReduceChunks would emit for it
  /// (a Lustre recovery line included); nullopt for a line that is no
  /// error report.
  Result<std::optional<ErrorRecord>> ParseLine(std::string_view line);

  /// One record parsed inside a chunk, before the absolute year is
  /// known: `year_delta` counts December rollovers observed within the
  /// chunk up to and including this line.
  struct PreRecord {
    ErrorRecord rec;  // time unset; recovered unset (see is_recovery)
    int year_delta = 0;
    int month = 0, day = 0, hour = 0, minute = 0, second = 0;
    bool is_recovery = false;  // Lustre recovery line: recovered = time
  };

  /// A chunk's private output plus the year-rollover summary the ordered
  /// reduction needs to stitch absolute years across chunk boundaries.
  struct Chunk {
    std::vector<PreRecord> items;
    ParseStats stats;
    QuarantineSink sink;
    int first_month = 0;      // first month-valid line's month, 0 if none
    int last_month = 0;       // last month-valid line's month, 0 if none
    int year_delta_total = 0; // rollovers observed within the chunk
  };

  /// Parses a slice of lines into a private chunk; safe to call from any
  /// thread (touches no parser state).  `first_line_no` is the 1-based
  /// global number of lines[0]; `capture` null disables quarantine.
  static Chunk ParseChunk(std::span<const std::string_view> lines,
                          std::uint64_t first_line_no,
                          const QuarantineConfig* capture);

  /// Folds chunks — in order — through the year reconstruction,
  /// updating this parser's stream state, stats, and `sink`.  Emits one
  /// record per pre-record, in line order.
  std::vector<ErrorRecord> ReduceChunks(std::vector<Chunk>&& chunks,
                                        QuarantineSink* sink = nullptr);

  /// Parses a whole stream, chunked across `pool` (inline when null),
  /// and returns its records in line order.  Rejected lines are
  /// captured in `sink` when provided.
  std::vector<ErrorRecord> ParseLines(
      std::span<const std::string_view> lines, QuarantineSink* sink = nullptr,
      ThreadPool* pool = nullptr,
      std::size_t chunk_lines = kDefaultParseChunkLines);

  /// Legacy overload for owning line vectors; single-threaded.
  std::vector<ErrorRecord> ParseLines(const std::vector<std::string>& lines,
                                      QuarantineSink* sink = nullptr);

  const ParseStats& stats() const { return stats_; }

  /// Checkpoint-restore hooks: beyond the counters, the parser carries
  /// the year-rollover reconstruction state (current year + last month
  /// seen), which must survive a restore or timestamps after a December
  /// boundary would land in the wrong year.
  struct StreamState {
    ParseStats stats;
    int current_year = 0;
    int last_month = 0;
  };
  StreamState stream_state() const {
    return {stats_, current_year_, last_month_};
  }
  void RestoreStreamState(const StreamState& state) {
    stats_ = state.stats;
    current_year_ = state.current_year;
    last_month_ = state.last_month;
  }

  /// Parses "Apr  1 02:10:02" within the given year.
  static Result<TimePoint> ParseSyslogTime(std::string_view text, int year);

  /// A line's claimed time under this parser's year rule: the stamp is
  /// rendered in the year of `last` (the source's previous claim),
  /// advanced on a December rollover and set back on a backward jump
  /// (RolloverBetween / BackwardJump).  `last` == TimePoint{} means no
  /// claim yet: the stamp lands in `base_year`.  Deriving the year from
  /// the previous claim keeps the claim carry the only state.
  static Result<TimePoint> ClaimTime(std::string_view line, TimePoint last,
                                     int base_year);

 private:
  Result<std::optional<ErrorRecord>> ParseLineImpl(std::string_view line);

  ParseStats stats_;
  int current_year_;
  int last_month_ = 0;
};

}  // namespace ld
