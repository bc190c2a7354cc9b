#include "logdiver/coalesce.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/obs/obs.hpp"
#include "common/parallel.hpp"
#include "logdiver/columns.hpp"
#include "logdiver/snapshot.hpp"
#include "topology/cname.hpp"

namespace ld {
namespace {

/// Resolves a tuple's location string to the affected node set.
/// Returns false when the component is unknown on this machine.
bool ResolveNodes(const Machine& machine, LocScope scope,
                  std::string_view location, std::vector<NodeIndex>& out) {
  switch (scope) {
    case LocScope::kSystem:
      out.clear();  // empty = machine-wide
      return true;
    case LocScope::kNode: {
      auto idx = machine.FindByCname(std::string(location));
      if (!idx.ok()) return false;
      out = {*idx};
      return true;
    }
    case LocScope::kBlade: {
      // Location is a blade prefix "cX-YcCsS"; resolve all 4 node slots.
      out.clear();
      for (int nd = 0; nd < 4; ++nd) {
        auto idx = machine.FindByCname(std::string(location) + "n" +
                                       std::to_string(nd));
        if (idx.ok()) out.push_back(*idx);
      }
      return !out.empty();
    }
    case LocScope::kGemini: {
      // Location "cX-YcCsSg{P}": router P serves nodes 2P and 2P+1.
      const std::size_t g = location.rfind('g');
      if (g == std::string_view::npos || g + 1 >= location.size()) return false;
      const int pair = location[g + 1] - '0';
      if (pair < 0 || pair > 1) return false;
      const std::string blade(location.substr(0, g));
      out.clear();
      for (int nd = pair * 2; nd < pair * 2 + 2; ++nd) {
        auto idx = machine.FindByCname(blade + "n" + std::to_string(nd));
        if (idx.ok()) out.push_back(*idx);
      }
      return !out.empty();
    }
  }
  return false;
}

/// open_ key: the (category, location) identity packed into 64 bits.
/// Symbol ids are process-local and nondeterministic, which is fine
/// here — the key never leaves the process (snapshots re-derive it).
std::uint64_t OpenKey(ErrorCategory category, Symbol location) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(category))
          << 32) |
         location.id();
}

/// Window applied to a system incident whose recovery never arrived.
constexpr std::int64_t kDefaultIncidentSeconds = 1800;

void SortByFirst(std::vector<ErrorTuple>& tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [](const ErrorTuple& a, const ErrorTuple& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.id < b.id;
            });
}

/// Key shards of the batch coalescer.  Fixed rather than taken from the
/// pool, so the work split (and the trace's span set) is the same at
/// every thread count, as with parse chunks; twice a 4-thread pool, so
/// an error storm's few hot keys still leave every worker a share.
constexpr std::size_t kCoalesceShards = 8;

std::size_t ShardOf(std::uint64_t open_key) {
  // Fibonacci hashing: symbol ids are dense, so spread them first.
  return static_cast<std::size_t>((open_key * 0x9E3779B97F4A7C15ULL) >> 32) %
         kCoalesceShards;
}

/// A record's place in the serial feed: (time, input index).  Sorting
/// by it streams the dense int64 time column instead of shuffling
/// ~48-byte records, and it is total (indices are unique), so the
/// text-parse and bundle-cache paths assign identical tuple ids.
struct OrderKey {
  std::int64_t time;  // unix seconds, same key the column stores
  std::uint32_t index;

  // Branch-free: the merge below picks the least of its shards' heads
  // with this on every step, and which shard wins is data-dependent.
  friend bool operator<(const OrderKey& a, const OrderKey& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.index < b.index));
  }
};

/// Head of a shard whose creators are used up: after every real key
/// (a record index never reaches UINT32_MAX).
constexpr OrderKey kExhausted{INT64_MAX, UINT32_MAX};

/// One key shard's coalesced output.
struct CoalesceShard {
  std::vector<ErrorTuple> tuples;  // (first, local id) order
  /// creators[i] opened the tuple with local id i + 1, dropped
  /// unresolved ones included (they consume an id in the serial feed).
  std::vector<OrderKey> creators;
  CoalesceStats stats;
};

/// Coalesces the records whose (category, location) key falls in
/// `shard`, in serial feed order.
CoalesceShard RunShard(const Machine& machine, const ErrorColumns& records,
                       const CoalesceConfig& config, std::size_t shard) {
  std::vector<OrderKey> order;
  order.reserve(records.size() / kCoalesceShards);
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    const std::uint64_t key =
        OpenKey(static_cast<ErrorCategory>(records.category[i]),
                records.location[i]);
    if (ShardOf(key) == shard) order.push_back(OrderKey{records.time[i], i});
  }
  std::sort(order.begin(), order.end());
  CoalesceShard out;
  StreamingCoalescer coalescer(machine, config);
  for (const OrderKey& key : order) {
    const std::uint64_t id = coalescer.next_id();
    coalescer.Add(records.Row(key.index));
    if (coalescer.next_id() != id) out.creators.push_back(key);
  }
  out.tuples = coalescer.FlushAll();
  out.stats = coalescer.stats();
  return out;
}

}  // namespace

Interval ErrorTuple::ImpactWindow() const {
  const TimePoint end = recovered.has_value() ? *recovered : last;
  return Interval{first, std::max(end, first) + Duration(1)};
}

StreamingCoalescer::StreamingCoalescer(const Machine& machine,
                                       CoalesceConfig config)
    : machine_(machine), config_(config) {
  // The open set tracks one tuple per actively-erroring (category,
  // location); a few hundred is a bad day.  Reserving ahead keeps the
  // per-record Add() from ever rehashing mid-stream.
  open_.reserve(256);
}

void StreamingCoalescer::Add(const ErrorRecord& record) {
  const std::uint64_t key = OpenKey(record.category, record.location);
  auto it = open_.find(key);
  const bool incident = record.scope == LocScope::kSystem;
  if (incident && record.recovered.has_value()) {
    // A recovery line is no event: it closes the open incident on its
    // key, and with none open it is a stray and dropped.
    if (open_incidents_.erase(key) != 0) {
      ErrorTuple& tuple = it->second;
      tuple.recovered = std::max(tuple.recovered.value_or(*record.recovered),
                                 *record.recovered);
    }
    return;
  }
  ++stats_.input_events;
  if (it != open_.end()) {
    ErrorTuple& tuple = it->second;
    // An open system incident is ongoing by definition: every error
    // report merges into it, however long it lasts.  A report within
    // the window of a closed incident re-opens it.
    const bool in_window =
        (record.time >= tuple.first - config_.tupling_window &&
         record.time <= tuple.last + config_.tupling_window) ||
        (incident && open_incidents_.contains(key));
    if (in_window) {
      tuple.first = std::min(tuple.first, record.time);
      tuple.last = std::max(tuple.last, record.time);
      tuple.severity = std::max(tuple.severity, record.severity);
      tuple.count += 1;
      tuple.from_syslog |= record.source == LogSource::kSyslog;
      tuple.from_hwerr |= record.source == LogSource::kHwerr;
      if (incident) open_incidents_.insert(key);
      return;
    }
    // The gap exceeded the window: the old tuple is complete.  Its map
    // slot is reused for the new burst below instead of paying an
    // erase + emplace on every displacement — displacements are the
    // common case (most bursts on a key are long over when the next
    // one starts).
    closed_.push_back(std::move(it->second));
  }
  ErrorTuple tuple;
  tuple.id = next_id_++;
  tuple.category = record.category;
  tuple.severity = record.severity;
  tuple.scope = record.scope;
  tuple.location = record.location;
  tuple.first = record.time;
  tuple.last = record.time;
  tuple.count = 1;
  tuple.from_syslog = record.source == LogSource::kSyslog;
  tuple.from_hwerr = record.source == LogSource::kHwerr;
  // Resolution is memoized per (scope, location): the same few thousand
  // component names recur across the whole log, and a cache hit replaces
  // the cname map lookups (and their string building) with a copy of a
  // short node list.
  const std::uint64_t resolve_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(record.scope))
       << 32) |
      record.location.id();
  auto [cached, fresh] = resolve_cache_.try_emplace(resolve_key);
  if (fresh) {
    cached->second.ok = ResolveNodes(machine_, record.scope,
                                     record.location.view(),
                                     cached->second.nodes);
  }
  if (!cached->second.ok) {
    ++stats_.unresolved_locations;
    // component not on this machine: drop (and release the displaced
    // slot, if the record evicted one).
    if (it != open_.end()) open_.erase(it);
    return;
  }
  tuple.nodes = cached->second.nodes;
  if (incident) open_incidents_.insert(key);
  if (it != open_.end()) {
    it->second = std::move(tuple);
  } else {
    open_.emplace(key, std::move(tuple));
  }
}

std::vector<ErrorTuple> StreamingCoalescer::Flush(TimePoint watermark) {
  std::vector<ErrorTuple> out = std::move(closed_);
  closed_.clear();
  for (auto it = open_.begin(); it != open_.end();) {
    ErrorTuple& tuple = it->second;
    const bool window_closed =
        tuple.last + config_.tupling_window < watermark;
    if (window_closed && !open_incidents_.contains(it->first)) {
      out.push_back(std::move(tuple));
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.tuples += out.size();
  SortByFirst(out);
  return out;
}

std::vector<ErrorTuple> StreamingCoalescer::FlushAll() {
  std::vector<ErrorTuple> out = std::move(closed_);
  closed_.clear();
  for (auto& [key, tuple] : open_) {
    if (open_incidents_.contains(key)) {
      const TimePoint end = tuple.first + Duration(kDefaultIncidentSeconds);
      tuple.recovered = std::max(tuple.recovered.value_or(end), end);
    }
    out.push_back(std::move(tuple));
  }
  open_.clear();
  open_incidents_.clear();
  stats_.tuples += out.size();
  SortByFirst(out);
  return out;
}

std::optional<TimePoint> StreamingCoalescer::EarliestOpenIncident() const {
  std::optional<TimePoint> earliest;
  for (const std::uint64_t key : open_incidents_) {
    const TimePoint first = open_.at(key).first;
    if (!earliest.has_value() || first < *earliest) earliest = first;
  }
  return earliest;
}

void StreamingCoalescer::MergeFrom(const StreamingCoalescer& other) {
  stats_.input_events += other.stats_.input_events;
  stats_.tuples += other.stats_.tuples;
  stats_.unresolved_locations += other.stats_.unresolved_locations;
  // Shift the other side's ids past ours: ids are 1-based, so offsetting
  // by next_id_ - 1 keeps the merged space dense and unique, and makes
  // the shift compose associatively across repeated merges.
  const std::uint64_t offset = next_id_ - 1;
  next_id_ += other.next_id_ - 1;
  closed_.reserve(closed_.size() + other.closed_.size());
  for (const ErrorTuple& tuple : other.closed_) {
    closed_.push_back(tuple);
    closed_.back().id += offset;
  }
  for (const auto& [key, theirs] : other.open_) {
    ErrorTuple shifted = theirs;
    shifted.id += offset;
    auto [it, inserted] = open_.emplace(key, std::move(shifted));
    if (inserted) continue;
    // Key collision: the partition was not key-disjoint.  Merge
    // conservatively rather than dropping either burst.
    ErrorTuple& mine = it->second;
    mine.id = std::min(mine.id, theirs.id + offset);
    mine.first = std::min(mine.first, theirs.first);
    mine.last = std::max(mine.last, theirs.last);
    mine.severity = std::max(mine.severity, theirs.severity);
    mine.count += theirs.count;
    mine.from_syslog |= theirs.from_syslog;
    mine.from_hwerr |= theirs.from_hwerr;
    if (theirs.recovered.has_value()) {
      mine.recovered = mine.recovered.has_value()
                           ? std::max(*mine.recovered, *theirs.recovered)
                           : theirs.recovered;
    }
  }
  // An incident open on either side stays open.
  open_incidents_.insert(other.open_incidents_.begin(),
                         other.open_incidents_.end());
}

void StreamingCoalescer::SaveState(SnapshotWriter& w) const {
  w.U64(stats_.input_events);
  w.U64(stats_.tuples);
  w.U64(stats_.unresolved_locations);
  w.U64(next_id_);
  // The open map is unordered and its keys embed nondeterministic
  // symbol ids; serialize in (category, location string) order so the
  // snapshot bytes are a pure function of the analyzed stream.  The
  // keys themselves are not written: each open tuple carries its own
  // (category, location), and its incident flag follows the tuples.
  std::vector<const ErrorTuple*> open_sorted;
  open_sorted.reserve(open_.size());
  for (const auto& [key, tuple] : open_) open_sorted.push_back(&tuple);
  std::sort(open_sorted.begin(), open_sorted.end(),
            [](const ErrorTuple* a, const ErrorTuple* b) {
              if (a->category != b->category) return a->category < b->category;
              return a->location.view() < b->location.view();
            });
  PutTuples(w, open_sorted);
  for (const ErrorTuple* t : open_sorted) {
    w.Bool(open_incidents_.contains(OpenKey(t->category, t->location)));
  }
  PutTuples(w, closed_);
}

void StreamingCoalescer::LoadState(SnapshotReader& r) {
  stats_.input_events = r.U64();
  stats_.tuples = r.U64();
  stats_.unresolved_locations = r.U64();
  next_id_ = r.U64();
  std::vector<ErrorTuple> open;
  GetTuples(r, open);
  open_.clear();
  open_.reserve(std::max<std::size_t>(open.size(), 256));
  open_incidents_.clear();
  for (ErrorTuple& tuple : open) {
    const std::uint64_t key = OpenKey(tuple.category, tuple.location);
    if (r.Bool()) open_incidents_.insert(key);
    if (!open_.emplace(key, std::move(tuple)).second) {
      r.Fail("two open tuples share one (category, location) key");
    }
  }
  closed_.clear();
  GetTuples(r, closed_);
}

std::vector<ErrorTuple> CoalesceEvents(
    const Machine& machine, const ErrorColumns& records,
    const CoalesceConfig& config, CoalesceStats* stats, ThreadPool* pool,
    const std::function<void()>& alongside) {
  std::vector<CoalesceShard> shards(kCoalesceShards);
  {
    TaskGroup group(pool);
    for (std::size_t s = 0; s < kCoalesceShards; ++s) {
      group.Run([&machine, &records, &config, &shards, s] {
        LD_OBS_SPAN("coalesce/shard");
        shards[s] = RunShard(machine, records, config, s);
      });
    }
    if (alongside) alongside();
    group.Wait();
  }

  CoalesceStats total;
  std::uint64_t creators = 0;
  std::array<OrderKey, kCoalesceShards> head;  // next creator per shard
  for (std::size_t s = 0; s < kCoalesceShards; ++s) {
    const CoalesceShard& shard = shards[s];
    total.input_events += shard.stats.input_events;
    total.tuples += shard.stats.tuples;
    total.unresolved_locations += shard.stats.unresolved_locations;
    creators += shard.creators.size();
    head[s] = shard.creators.empty() ? kExhausted : shard.creators[0];
  }
  // One k-way merge of every shard's creators in (time, index) order
  // replays the serial feed's tuple creations, so the i-th creator met
  // gets id i.  A tuple's first event is its creator's (a shard feeds in
  // time order, so no later member is earlier), so the same merge meets
  // the surviving tuples in (first, id) order and appends them as is.
  std::vector<ErrorTuple> out;
  out.reserve(total.tuples);
  std::array<std::size_t, kCoalesceShards> created{};  // creators met
  std::array<std::size_t, kCoalesceShards> placed{};   // tuples appended
  for (std::uint64_t id = 1; id <= creators; ++id) {
    std::size_t best = 0;
    for (std::size_t s = 1; s < kCoalesceShards; ++s) {
      best = head[s] < head[best] ? s : best;
    }
    CoalesceShard& shard = shards[best];
    const std::size_t local = created[best]++;
    head[best] = created[best] < shard.creators.size()
                     ? shard.creators[created[best]]
                     : kExhausted;
    std::size_t& next = placed[best];
    if (next < shard.tuples.size() && shard.tuples[next].id == local + 1) {
      out.push_back(std::move(shard.tuples[next++]));
      out.back().id = id;
    }
  }
  if (stats != nullptr) *stats = total;
  return out;
}

std::vector<ErrorTuple> CoalesceEvents(const Machine& machine,
                                       std::vector<ErrorRecord> records,
                                       const CoalesceConfig& config,
                                       CoalesceStats* stats) {
  return CoalesceEvents(machine, ErrorColumns::FromRecords(records), config,
                        stats);
}

}  // namespace ld
