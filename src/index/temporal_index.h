#ifndef TVDP_INDEX_TEMPORAL_INDEX_H_
#define TVDP_INDEX_TEMPORAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/timeutil.h"
#include "index/rtree.h"

namespace tvdp::index {

/// Ordered index over capture timestamps, supporting temporal range
/// queries ("all images captured in this window"). Backed by a sorted
/// array with binary search; inserts keep the array sorted (bulk loads
/// should use the batched constructor).
class TemporalIndex {
 public:
  TemporalIndex() = default;

  /// Bulk constructor from (timestamp, id) pairs in any order.
  explicit TemporalIndex(std::vector<std::pair<Timestamp, RecordId>> entries);

  /// Inserts one entry (O(n) worst case; fine for simulation-scale data).
  void Insert(Timestamp ts, RecordId id);

  /// Record ids with timestamp in the closed interval [begin, end] — both
  /// boundaries included — time-ordered. An inverted range (begin > end)
  /// yields no results here; the query engine rejects it as
  /// InvalidArgument before reaching the index, so callers can tell "empty
  /// window" from "nonsensical window".
  std::vector<RecordId> RangeSearch(Timestamp begin, Timestamp end) const;

  /// Statistics hook for the query planner: number of entries in
  /// [begin, end]. Exact (two binary searches on the sorted array) and
  /// O(log n) — the temporal "estimate" is really a count.
  double CardinalityEstimate(Timestamp begin, Timestamp end) const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Earliest/latest timestamps (undefined when empty).
  Timestamp min_timestamp() const { return entries_.front().first; }
  Timestamp max_timestamp() const { return entries_.back().first; }

 private:
  std::vector<std::pair<Timestamp, RecordId>> entries_;  // sorted by time
};

}  // namespace tvdp::index

#endif  // TVDP_INDEX_TEMPORAL_INDEX_H_
