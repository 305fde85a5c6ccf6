#include "index/temporal_index.h"

#include <algorithm>

namespace tvdp::index {

TemporalIndex::TemporalIndex(
    std::vector<std::pair<Timestamp, RecordId>> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end());
}

void TemporalIndex::Insert(Timestamp ts, RecordId id) {
  auto it = std::upper_bound(entries_.begin(), entries_.end(),
                             std::make_pair(ts, id));
  entries_.insert(it, {ts, id});
}

std::vector<RecordId> TemporalIndex::RangeSearch(Timestamp begin,
                                                 Timestamp end) const {
  std::vector<RecordId> out;
  if (begin > end) return out;
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), begin,
      [](const auto& e, Timestamp t) { return e.first < t; });
  for (auto it = lo; it != entries_.end() && it->first <= end; ++it) {
    out.push_back(it->second);
  }
  return out;
}

double TemporalIndex::CardinalityEstimate(Timestamp begin,
                                          Timestamp end) const {
  if (begin > end) return 0;
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), begin,
      [](const auto& e, Timestamp t) { return e.first < t; });
  auto hi = std::upper_bound(
      entries_.begin(), entries_.end(), end,
      [](Timestamp t, const auto& e) { return t < e.first; });
  return static_cast<double>(hi - lo);
}

}  // namespace tvdp::index
