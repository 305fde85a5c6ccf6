#ifndef TVDP_INDEX_LSH_H_
#define TVDP_INDEX_LSH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/rtree.h"
#include "ml/dataset.h"

namespace tvdp::index {

/// Locality-sensitive hashing for Euclidean distance, after Datar et al.
/// (SoCG 2004): each of L tables hashes a vector with k p-stable (Gaussian)
/// projections h(x) = floor((a.x + b) / w); candidates from matching
/// buckets are re-ranked by exact distance. This serves TVDP's visual
/// queries (top-k similar images, similarity threshold).
class LshIndex {
 public:
  struct Options {
    int num_tables = 8;        ///< L
    int hashes_per_table = 8;  ///< k
    double bucket_width = 1.0; ///< w, relative to feature scale
    uint64_t seed = 31;
    /// Number of neighbouring probes per table (multi-probe LSH); 0 means
    /// exact bucket only.
    int probes = 2;
    /// Pool for parallel multi-table probing and exact-distance re-ranking
    /// of large candidate sets; nullptr = sequential. Queries are safe to
    /// run concurrently; Insert needs external exclusion (the QueryEngine
    /// holds its writer lock).
    ThreadPool* pool = nullptr;
  };

  /// Creates an index for vectors of dimensionality `dim`.
  LshIndex(size_t dim, Options options);
  LshIndex(size_t dim) : LshIndex(dim, Options()) {}  // NOLINT

  /// Inserts a vector with its record id.
  Status Insert(const ml::FeatureVector& v, RecordId id);

  /// Approximate top-k by L2 distance. Results are (id, distance) sorted
  /// ascending; may return fewer than k when buckets are sparse.
  ///
  /// `ctx` (optional) is checked between per-table probes and candidate
  /// ranking chunks; a failed context returns the partial results ranked so
  /// far — the caller (QueryEngine) converts the failed context into a
  /// kDeadlineExceeded/kCancelled status. `probes_override` >= 0 substitutes
  /// the configured multi-probe budget for this query only (degraded plans
  /// probe fewer neighbouring buckets).
  std::vector<std::pair<RecordId, double>> KNearest(
      const ml::FeatureVector& query, int k,
      const RequestContext* ctx = nullptr, int probes_override = -1) const;

  /// All candidates within `threshold` L2 distance (approximate recall).
  /// `ctx` / `probes_override` as in KNearest.
  std::vector<std::pair<RecordId, double>> RangeSearch(
      const ml::FeatureVector& query, double threshold,
      const RequestContext* ctx = nullptr, int probes_override = -1) const;

  /// Statistics hook for the query planner: the number of distinct
  /// candidates the configured (or overridden) probe budget would surface
  /// for `query` — bucket lookups and a seen-bitmap only, no distance
  /// arithmetic. This is the exact candidate count the subsequent
  /// KNearest/RangeSearch would rank, so threshold-predicate selectivity
  /// estimates are as accurate as the hash family allows.
  double CardinalityEstimate(const ml::FeatureVector& query,
                             int probes_override = -1) const;

  size_t size() const { return vectors_.size(); }
  size_t dim() const { return dim_; }

 private:
  using BucketKey = uint64_t;

  /// Hash signature of `v` in `table`, with optional perturbation of the
  /// `perturb`-th hash by +-1 (multi-probe).
  BucketKey Signature(const ml::FeatureVector& v, int table, int perturb_index,
                      int perturb_delta) const;

  std::vector<RecordId> CollectCandidates(const ml::FeatureVector& query,
                                          const RequestContext* ctx,
                                          int probes) const;

  /// Exact L2 distances of `slots` against `query`, fanned out across the
  /// pool when the set is large.
  std::vector<std::pair<RecordId, double>> RankCandidates(
      const ml::FeatureVector& query, const std::vector<RecordId>& slots,
      const RequestContext* ctx) const;

  size_t dim_;
  Options options_;
  // projections_[table][hash] is a dim-vector; offsets_[table][hash] in [0,w).
  std::vector<std::vector<ml::FeatureVector>> projections_;
  std::vector<std::vector<double>> offsets_;
  std::vector<std::unordered_map<BucketKey, std::vector<RecordId>>> tables_;
  std::vector<ml::FeatureVector> vectors_;  // slot = insertion order
  std::vector<RecordId> ids_;
};

}  // namespace tvdp::index

#endif  // TVDP_INDEX_LSH_H_
