// The paper's future-work scenario (Sec. VIII): TVDP as a disaster data
// platform. A wildfire breaks out; the city launches a spatial-
// crowdsourcing campaign to build FOV-complete visual coverage of the
// affected area fast, captures stream into the platform as they arrive,
// and responders watch coverage and query the freshest imagery per block.
//
// Run: ./build/examples/disaster_response

#include <cstdio>

#include "crowd/acquisition.h"
#include "geo/coverage.h"
#include "platform/tvdp.h"

using namespace tvdp;

int main() {
  // The affected area: a 3 km x 3 km box.
  geo::BoundingBox fire_zone =
      geo::BoundingBox::FromCorners({34.08, -118.38}, {34.11, -118.35});

  auto created = platform::Tvdp::Create();
  if (!created.ok()) return 1;
  platform::Tvdp tvdp = std::move(created).value();
  if (!tvdp.RegisterClassification("damage_assessment",
                                   {"unaffected", "smoke", "burned"})
           .ok()) {
    return 1;
  }

  // Campaign: 90% direction-aware coverage of the zone.
  auto grid = geo::CoverageGrid::Make(fire_zone, 6, 6, 4);
  if (!grid.ok()) return 1;
  Rng rng(2024);
  // Drone operators + volunteers near the zone.
  crowd::WorkerPool pool = crowd::WorkerPool::MakeUniform(fire_zone, 35, rng);
  for (auto& w : pool.workers()) {
    w.camera_radius_m = 220;  // drones see further than phones
    w.capacity = 5;
  }
  crowd::Campaign campaign;
  campaign.id = 1;
  campaign.name = "wildfire-2019-06";
  campaign.region = fire_zone;
  campaign.target_coverage = 0.9;
  campaign.created_at = 1561939200;  // 2019-07-01

  crowd::IterativeAcquisition::Options opts;
  opts.max_rounds = 12;
  opts.seconds_per_round = 900;  // 15-minute tasking cycles
  crowd::IterativeAcquisition acquisition(campaign, std::move(*grid),
                                          std::move(pool), opts, 99);

  // Every completed capture is ingested into the platform immediately.
  int ingested = 0;
  auto history = acquisition.Run([&](const crowd::Capture& capture) {
    platform::ImageRecord rec;
    rec.uri = "drone://wildfire/" + std::to_string(ingested);
    rec.location = capture.fov.camera;
    rec.fov = capture.fov;
    rec.captured_at = capture.captured_at;
    rec.source = "campaign:" + campaign.name;
    rec.keywords = {"wildfire", "aerial"};
    if (tvdp.IngestImage(rec).ok()) ++ingested;
  });

  std::printf("== wildfire campaign '%s' ==\n", campaign.name.c_str());
  std::printf("%-6s %-8s %-9s %-10s %-10s\n", "round", "tasks", "done",
              "coverage", "cells");
  for (const auto& r : history) {
    std::printf("%-6d %-8d %-9d %-10.3f %-10.3f\n", r.round, r.tasks_issued,
                r.tasks_completed, r.coverage_after, r.cell_coverage_after);
  }
  std::printf("\n%d captures ingested; final FOV coverage %.1f%%\n", ingested,
              acquisition.grid().CoverageRatio() * 100);

  // Situational queries responders run while the campaign is live:
  // the freshest imagery that actually *shows* a threatened school.
  // The school sits at the center of one coverage cell (row 2, col 2 of
  // the 6x6 grid), i.e. squarely inside the area the campaign documents.
  geo::GeoPoint school{
      fire_zone.min_lat + (fire_zone.max_lat - fire_zone.min_lat) * 2.5 / 6,
      fire_zone.min_lon + (fire_zone.max_lon - fire_zone.min_lon) * 2.5 / 6};
  auto watching = tvdp.query().VisibleAt(school);
  if (!watching.ok()) return 1;
  auto nearby = tvdp.query().SpatialKnn(school, 5);
  if (!nearby.ok()) return 1;
  std::printf("\nimages whose FOV covers the school at %s: %zu "
              "(plus %zu nearest captures for context)\n",
              school.ToString().c_str(), watching->size(), nearby->size());

  // Most recent captures in the northern half of the zone.
  geo::BoundingBox north_half = fire_zone;
  north_half.min_lat = (fire_zone.min_lat + fire_zone.max_lat) / 2;
  query::HybridQuery q;
  query::SpatialPredicate sp;
  sp.kind = query::SpatialPredicate::Kind::kRange;
  sp.range = north_half;
  q.spatial = sp;
  Timestamp end = campaign.created_at +
                  static_cast<Timestamp>(history.size()) *
                      opts.seconds_per_round;
  q.temporal = query::TemporalPredicate{end - 2 * opts.seconds_per_round, end};
  query::QueryPlan plan;
  auto fresh = tvdp.query().Execute(q, nullptr, query::QueryBudget(), &plan);
  if (!fresh.ok()) return 1;
  std::printf("captures of the northern half from the last 30 minutes: %zu "
              "(plan: %s)\n",
              fresh->size(), plan.LegacySummary().c_str());

  // Gaps still open -> the next tasking wave.
  auto gaps = acquisition.grid().FindGaps();
  std::printf("remaining coverage gaps for the next wave: %zu cells\n",
              gaps.size());
  return 0;
}
