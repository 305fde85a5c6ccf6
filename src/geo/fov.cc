#include "geo/fov.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace tvdp::geo {

Result<FieldOfView> FieldOfView::Make(const GeoPoint& camera,
                                      double direction_deg, double angle_deg,
                                      double radius_m) {
  if (!IsValid(camera)) {
    return Status::InvalidArgument("FOV camera location out of range");
  }
  if (!(angle_deg > 0.0) || angle_deg > 360.0) {
    return Status::InvalidArgument("FOV viewable angle must be in (0, 360]");
  }
  if (!(radius_m > 0.0)) {
    return Status::InvalidArgument("FOV radius must be positive");
  }
  FieldOfView fov;
  fov.camera = camera;
  fov.direction_deg = NormalizeBearing(direction_deg);
  fov.angle_deg = angle_deg;
  fov.radius_m = radius_m;
  return fov;
}

bool FieldOfView::ContainsPoint(const GeoPoint& p) const {
  double d = HaversineMeters(camera, p);
  if (d > radius_m) return false;
  if (d < 1e-9) return true;  // the camera location itself
  if (angle_deg >= 360.0) return true;
  double bearing = InitialBearingDeg(camera, p);
  return std::abs(AngularDifference(bearing, direction_deg)) <=
         angle_deg / 2.0 + 1e-12;
}

BoundingBox FieldOfView::SceneLocation() const {
  BoundingBox box = BoundingBox::Empty();
  box.Extend(camera);
  double half = angle_deg / 2.0;
  // The two boundary rays.
  box.Extend(Destination(camera, direction_deg - half, radius_m));
  box.Extend(Destination(camera, direction_deg + half, radius_m));
  box.Extend(Destination(camera, direction_deg, radius_m));
  // If the arc sweeps past a cardinal bearing, the extremum lies on that
  // bearing at full radius.
  for (double cardinal : {0.0, 90.0, 180.0, 270.0}) {
    if (std::abs(AngularDifference(cardinal, direction_deg)) <= half) {
      box.Extend(Destination(camera, cardinal, radius_m));
    }
  }
  return box;
}

bool FieldOfView::IntersectsBBox(const BoundingBox& box) const {
  if (box.IsEmpty()) return false;
  // Camera inside the box => definitely intersecting. Tested before the
  // scene MBR, which costs several geodesic destinations.
  if (box.Contains(camera)) return true;
  if (!SceneLocation().Intersects(box)) return false;
  // Any box corner inside the sector?
  const GeoPoint corners[4] = {
      {box.min_lat, box.min_lon},
      {box.min_lat, box.max_lon},
      {box.max_lat, box.min_lon},
      {box.max_lat, box.max_lon},
  };
  for (const auto& c : corners) {
    if (ContainsPoint(c)) return true;
  }
  // Sample the sector boundary (arc + two radial edges) against the box.
  constexpr int kArcSamples = 24;
  double half = angle_deg / 2.0;
  for (int i = 0; i <= kArcSamples; ++i) {
    double b = direction_deg - half + angle_deg * i / kArcSamples;
    if (box.Contains(Destination(camera, b, radius_m))) return true;
  }
  constexpr int kEdgeSamples = 8;
  for (int i = 1; i < kEdgeSamples; ++i) {
    double r = radius_m * i / kEdgeSamples;
    if (box.Contains(Destination(camera, direction_deg - half, r))) return true;
    if (box.Contains(Destination(camera, direction_deg + half, r))) return true;
  }
  return false;
}

bool FieldOfView::CoversBearing(double bearing_deg) const {
  return std::abs(AngularDifference(bearing_deg, direction_deg)) <=
         angle_deg / 2.0 + 1e-12;
}

std::string FieldOfView::ToString() const {
  return StrFormat("FOV{L=%s, theta=%.1f, alpha=%.1f, R=%.1fm}",
                   camera.ToString().c_str(), direction_deg, angle_deg,
                   radius_m);
}

double SectorFractionInsideBBox(const FieldOfView& fov, const BoundingBox& box,
                                int radial_steps, int angular_steps) {
  if (box.IsEmpty() || radial_steps <= 0 || angular_steps <= 0) return 0.0;
  double half = fov.angle_deg / 2.0;
  double covered_weight = 0.0;
  double total_weight = 0.0;
  for (int ri = 0; ri < radial_steps; ++ri) {
    // Midpoint radius; ring weight proportional to its area (~ r dr).
    double r = fov.radius_m * (ri + 0.5) / radial_steps;
    double w = (ri + 0.5);
    for (int ai = 0; ai < angular_steps; ++ai) {
      double b = fov.direction_deg - half +
                 fov.angle_deg * (ai + 0.5) / angular_steps;
      total_weight += w;
      if (box.Contains(Destination(fov.camera, b, r))) covered_weight += w;
    }
  }
  return total_weight > 0 ? covered_weight / total_weight : 0.0;
}

}  // namespace tvdp::geo
