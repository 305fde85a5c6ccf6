#include "index/oriented_rtree.h"

namespace tvdp::index {
namespace {

/// Below this many candidates the exact refinement runs inline.
constexpr size_t kParallelRefineMin = 128;

}  // namespace

OrientedRTree::OrientedRTree(Options options)
    : options_(options), tree_(RTree::Options{options.max_entries}) {}

OrientedRTree OrientedRTree::Clone() const {
  OrientedRTree out(options_);
  out.tree_ = tree_.Clone();
  out.fovs_ = fovs_;
  return out;
}

Status OrientedRTree::Insert(const geo::FieldOfView& fov, RecordId id) {
  geo::BoundingBox scene = fov.SceneLocation();
  if (scene.IsEmpty()) {
    return Status::InvalidArgument("FOV has an empty scene MBR");
  }
  RecordId slot = static_cast<RecordId>(fovs_.size());
  fovs_.push_back(Stored{fov, id});
  return tree_.Insert(scene, slot);
}

std::vector<RecordId> OrientedRTree::Refine(
    const std::vector<RecordId>& candidates,
    const std::function<bool(const Stored&)>& match,
    const RequestContext* ctx) const {
  if (options_.pool && candidates.size() >= kParallelRefineMin) {
    std::vector<char> hit(candidates.size(), 0);
    auto refine_span = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        hit[i] = match(fovs_[static_cast<size_t>(candidates[i])]) ? 1 : 0;
      }
      return Status::OK();
    };
    if (ctx) {
      (void)options_.pool->ParallelFor(*ctx, candidates.size(), 32,
                                       refine_span);
    } else {
      (void)options_.pool->ParallelFor(candidates.size(), 32, refine_span);
    }
    std::vector<RecordId> out;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (hit[i]) out.push_back(fovs_[static_cast<size_t>(candidates[i])].id);
    }
    return out;
  }
  std::vector<RecordId> out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (ctx && i % 64 == 0 && !ctx->Check().ok()) break;
    const Stored& s = fovs_[static_cast<size_t>(candidates[i])];
    if (match(s)) out.push_back(s.id);
  }
  return out;
}

std::vector<RecordId> OrientedRTree::RangeSearch(
    const geo::BoundingBox& box, const RequestContext* ctx) const {
  return Refine(
      tree_.RangeSearch(box),
      [&box](const Stored& s) { return s.fov.IntersectsBBox(box); }, ctx);
}

std::vector<RecordId> OrientedRTree::PointQuery(const geo::GeoPoint& p,
                                                const RequestContext* ctx) const {
  geo::BoundingBox probe;
  probe.min_lat = probe.max_lat = p.lat;
  probe.min_lon = probe.max_lon = p.lon;
  return Refine(
      tree_.RangeSearch(probe),
      [&p](const Stored& s) { return s.fov.ContainsPoint(p); }, ctx);
}

}  // namespace tvdp::index
