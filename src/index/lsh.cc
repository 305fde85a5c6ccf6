#include "index/lsh.h"

#include <algorithm>
#include <cmath>

namespace tvdp::index {

LshIndex::LshIndex(size_t dim, Options options)
    : dim_(dim), options_(options) {
  options_.num_tables = std::max(options_.num_tables, 1);
  options_.hashes_per_table = std::max(options_.hashes_per_table, 1);
  if (options_.bucket_width <= 0) options_.bucket_width = 1.0;
  Rng rng(options_.seed);
  projections_.resize(static_cast<size_t>(options_.num_tables));
  offsets_.resize(static_cast<size_t>(options_.num_tables));
  tables_.resize(static_cast<size_t>(options_.num_tables));
  for (int t = 0; t < options_.num_tables; ++t) {
    for (int h = 0; h < options_.hashes_per_table; ++h) {
      ml::FeatureVector a(dim_);
      for (double& x : a) x = rng.Normal();
      projections_[static_cast<size_t>(t)].push_back(std::move(a));
      offsets_[static_cast<size_t>(t)].push_back(
          rng.Uniform(0, options_.bucket_width));
    }
  }
}

LshIndex::BucketKey LshIndex::Signature(const ml::FeatureVector& v, int table,
                                        int perturb_index,
                                        int perturb_delta) const {
  // FNV-1a over the per-hash integer codes.
  uint64_t key = 1469598103934665603ULL;
  const auto& projs = projections_[static_cast<size_t>(table)];
  const auto& offs = offsets_[static_cast<size_t>(table)];
  for (int h = 0; h < options_.hashes_per_table; ++h) {
    double proj = ml::Dot(projs[static_cast<size_t>(h)], v) +
                  offs[static_cast<size_t>(h)];
    int64_t code =
        static_cast<int64_t>(std::floor(proj / options_.bucket_width));
    if (h == perturb_index) code += perturb_delta;
    uint64_t u = static_cast<uint64_t>(code);
    for (int byte = 0; byte < 8; ++byte) {
      key ^= (u >> (8 * byte)) & 0xFF;
      key *= 1099511628211ULL;
    }
  }
  return key;
}

Status LshIndex::Insert(const ml::FeatureVector& v, RecordId id) {
  if (v.size() != dim_) {
    return Status::InvalidArgument("vector dimensionality mismatch");
  }
  RecordId slot = static_cast<RecordId>(vectors_.size());
  vectors_.push_back(v);
  ids_.push_back(id);
  for (int t = 0; t < options_.num_tables; ++t) {
    tables_[static_cast<size_t>(t)][Signature(v, t, -1, 0)].push_back(slot);
  }
  return Status::OK();
}

namespace {

/// Work thresholds below which a query skips the pool: the fan-out only
/// pays off once signature or distance arithmetic dominates scheduling.
constexpr size_t kParallelProbeMinVectors = 1024;
constexpr size_t kParallelRankMinCandidates = 256;

}  // namespace

std::vector<RecordId> LshIndex::CollectCandidates(
    const ml::FeatureVector& query, const RequestContext* ctx,
    int probes) const {
  // Per-table probing is independent: each table's signatures (the k·dim
  // dot products, times 1 + 2·probes perturbations) can be computed on a
  // worker. Bucket contents are read-only during queries; the per-table
  // result lists are merged with a seen-bitmap on the calling thread.
  size_t num_tables = static_cast<size_t>(options_.num_tables);
  std::vector<std::vector<RecordId>> per_table(num_tables);
  auto probe_table = [&](size_t t) {
    std::vector<RecordId>& local = per_table[t];
    auto probe = [&](int perturb_index, int perturb_delta) {
      auto it = tables_[t].find(Signature(query, static_cast<int>(t),
                                          perturb_index, perturb_delta));
      if (it == tables_[t].end()) return;
      local.insert(local.end(), it->second.begin(), it->second.end());
    };
    probe(-1, 0);
    // Multi-probe: perturb the first few hash coordinates by +-1.
    for (int p = 0; p < probes && p < options_.hashes_per_table; ++p) {
      probe(p, +1);
      probe(p, -1);
    }
  };
  if (options_.pool && num_tables >= 2 &&
      vectors_.size() >= kParallelProbeMinVectors) {
    auto probe_span = [&](size_t begin, size_t end) {
      for (size_t t = begin; t < end; ++t) probe_table(t);
      return Status::OK();
    };
    if (ctx) {
      (void)options_.pool->ParallelFor(*ctx, num_tables, 1, probe_span);
    } else {
      (void)options_.pool->ParallelFor(num_tables, 1, probe_span);
    }
  } else {
    for (size_t t = 0; t < num_tables; ++t) {
      if (ctx && !ctx->Check().ok()) break;
      probe_table(t);
    }
  }

  std::vector<RecordId> slots;
  std::vector<bool> seen(vectors_.size(), false);
  for (const std::vector<RecordId>& local : per_table) {
    for (RecordId slot : local) {
      if (!seen[static_cast<size_t>(slot)]) {
        seen[static_cast<size_t>(slot)] = true;
        slots.push_back(slot);
      }
    }
  }
  return slots;
}

std::vector<std::pair<RecordId, double>> LshIndex::RankCandidates(
    const ml::FeatureVector& query, const std::vector<RecordId>& slots,
    const RequestContext* ctx) const {
  // A failed context leaves the tail of `out` at distance 0 for slot 0;
  // callers detect the failed context and discard the partial ranking, so
  // the placeholder entries are never observed.
  std::vector<std::pair<RecordId, double>> out(slots.size());
  auto rank_span = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      size_t slot = static_cast<size_t>(slots[i]);
      out[i] = {ids_[slot], ml::L2Distance(query, vectors_[slot])};
    }
    return Status::OK();
  };
  if (options_.pool && slots.size() >= kParallelRankMinCandidates) {
    if (ctx) {
      (void)options_.pool->ParallelFor(*ctx, slots.size(), 64, rank_span);
    } else {
      (void)options_.pool->ParallelFor(slots.size(), 64, rank_span);
    }
  } else if (!ctx || ctx->Check().ok()) {
    (void)rank_span(0, slots.size());
  }
  return out;
}

double LshIndex::CardinalityEstimate(const ml::FeatureVector& query,
                                     int probes_override) const {
  if (query.size() != dim_ || vectors_.empty()) return 0;
  int probes = probes_override >= 0 ? probes_override : options_.probes;
  // Mirror CollectCandidates' bucket enumeration, but only count distinct
  // slots — no per-table lists, no ranking.
  std::vector<bool> seen(vectors_.size(), false);
  size_t distinct = 0;
  for (size_t t = 0; t < static_cast<size_t>(options_.num_tables); ++t) {
    auto count_bucket = [&](int perturb_index, int perturb_delta) {
      auto it = tables_[t].find(Signature(query, static_cast<int>(t),
                                          perturb_index, perturb_delta));
      if (it == tables_[t].end()) return;
      for (RecordId slot : it->second) {
        if (!seen[static_cast<size_t>(slot)]) {
          seen[static_cast<size_t>(slot)] = true;
          ++distinct;
        }
      }
    };
    count_bucket(-1, 0);
    for (int p = 0; p < probes && p < options_.hashes_per_table; ++p) {
      count_bucket(p, +1);
      count_bucket(p, -1);
    }
  }
  return static_cast<double>(distinct);
}

std::vector<std::pair<RecordId, double>> LshIndex::KNearest(
    const ml::FeatureVector& query, int k, const RequestContext* ctx,
    int probes_override) const {
  std::vector<std::pair<RecordId, double>> out;
  if (k <= 0 || query.size() != dim_) return out;
  int probes = probes_override >= 0 ? probes_override : options_.probes;
  out = RankCandidates(query, CollectCandidates(query, ctx, probes), ctx);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  if (out.size() > static_cast<size_t>(k)) out.resize(static_cast<size_t>(k));
  return out;
}

std::vector<std::pair<RecordId, double>> LshIndex::RangeSearch(
    const ml::FeatureVector& query, double threshold, const RequestContext* ctx,
    int probes_override) const {
  std::vector<std::pair<RecordId, double>> out;
  if (threshold < 0 || query.size() != dim_) return out;
  int probes = probes_override >= 0 ? probes_override : options_.probes;
  for (auto& [id, d] :
       RankCandidates(query, CollectCandidates(query, ctx, probes), ctx)) {
    if (d <= threshold) out.emplace_back(id, d);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace tvdp::index
