#ifndef TVDP_INDEX_ORIENTED_RTREE_H_
#define TVDP_INDEX_ORIENTED_RTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "geo/fov.h"
#include "index/rtree.h"

namespace tvdp::index {

/// Oriented R-tree over FOV descriptors (after Lu, Shahabi & Kim,
/// GeoInformatica 2016): an R-tree over scene MBRs filters, and each
/// candidate's exact sector refines.
///
/// Supported queries:
///  * RangeSearch(box) — FOVs whose sector intersects the box
///  * PointQuery(p)    — FOVs that actually see point p
///
/// Thread safety: concurrent queries are safe against each other; Insert
/// requires external exclusion against queries (the QueryEngine inserts
/// only into its live tree; queries read frozen clones in published
/// snapshots). Exact sector refinement of large
/// candidate sets fans out across the optional pool.
class OrientedRTree {
 public:
  struct Options {
    int max_entries = 16;
    /// Pool for parallel candidate refinement; nullptr = sequential.
    ThreadPool* pool = nullptr;
  };

  OrientedRTree() : OrientedRTree(Options()) {}
  explicit OrientedRTree(Options options);

  /// Deep copy for MVCC snapshot publication; requires the same external
  /// exclusion as Insert (the engine clones under its writer lock).
  OrientedRTree Clone() const;

  /// Inserts an FOV with its record id.
  Status Insert(const geo::FieldOfView& fov, RecordId id);

  /// Record ids whose FOV sector intersects `box` (exact refinement).
  /// `ctx` (optional) is checked at refinement chunk boundaries; a failed
  /// context returns whatever refined so far — the engine converts the
  /// failed context into an error status, so partial lists never escape.
  std::vector<RecordId> RangeSearch(const geo::BoundingBox& box,
                                    const RequestContext* ctx = nullptr) const;

  /// Record ids of FOVs containing the point `p`.
  std::vector<RecordId> PointQuery(const geo::GeoPoint& p,
                                   const RequestContext* ctx = nullptr) const;

  /// Statistics hook for the query planner: estimated number of FOVs
  /// whose scene MBR intersects `query` (the filter step; exact sector
  /// refinement typically keeps most of them). Delegates to the underlying
  /// R-tree estimate — never materializes candidates.
  double CardinalityEstimate(const geo::BoundingBox& query) const {
    return tree_.CardinalityEstimate(query);
  }

  size_t size() const { return fovs_.size(); }

 private:
  struct Stored {
    geo::FieldOfView fov;
    RecordId id;
  };

  /// Runs `match(stored)` over every candidate slot — in parallel via the
  /// pool when the set is large — and returns matching record ids in
  /// candidate order.
  std::vector<RecordId> Refine(
      const std::vector<RecordId>& candidates,
      const std::function<bool(const Stored&)>& match,
      const RequestContext* ctx = nullptr) const;

  Options options_;
  // Filter structure: R-tree over scene MBRs keyed by position in fovs_.
  RTree tree_;
  std::vector<Stored> fovs_;
};

}  // namespace tvdp::index

#endif  // TVDP_INDEX_ORIENTED_RTREE_H_
