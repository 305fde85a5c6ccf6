// TVDP quickstart: create a platform, ingest a few geo-tagged images,
// and run each of the five query families plus a hybrid query — entirely
// through the public API surface.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "geo/fov.h"
#include "platform/tvdp.h"
#include "query/query.h"

using namespace tvdp;

int main() {
  // 1. Create the platform (embedded catalog + indexes).
  auto created = platform::Tvdp::Create();
  if (!created.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  platform::Tvdp tvdp = std::move(created).value();

  // 2. Register a classification task and its labels.
  auto cls = tvdp.RegisterClassification(
      "street_cleanliness",
      {"clean", "bulky_item", "illegal_dumping", "encampment",
       "overgrown_vegetation"});
  if (!cls.ok()) return 1;

  // 3. Ingest three images with FOV metadata, keywords and timestamps.
  struct Seed {
    double lat, lon, direction;
    const char* label;
    std::vector<std::string> keywords;
  };
  std::vector<Seed> seeds = {
      {34.0500, -118.2500, 90, "encampment", {"tent", "sidewalk"}},
      {34.0520, -118.2480, 180, "clean", {"street", "clean"}},
      {34.0610, -118.2350, 270, "illegal_dumping", {"trash", "bags"}},
  };
  std::vector<int64_t> ids;
  for (size_t i = 0; i < seeds.size(); ++i) {
    platform::ImageRecord rec;
    rec.uri = "quickstart://img" + std::to_string(i);
    rec.location = geo::GeoPoint{seeds[i].lat, seeds[i].lon};
    rec.fov = *geo::FieldOfView::Make(rec.location, seeds[i].direction, 60,
                                      120);
    rec.captured_at = 1546300800 + static_cast<Timestamp>(i) * 3600;
    rec.keywords = seeds[i].keywords;
    rec.source = "quickstart";
    auto id = tvdp.IngestImage(rec);
    if (!id.ok()) return 1;
    ids.push_back(*id);

    // Attach a manual annotation and a small feature vector.
    platform::AnnotationRecord ann;
    ann.classification = "street_cleanliness";
    ann.label = seeds[i].label;
    ann.confidence = 0.95;
    if (!tvdp.AnnotateImage(*id, ann).ok()) return 1;
    ml::FeatureVector feature(8, 0.1);
    feature[i % 8] = 1.0;
    if (!tvdp.StoreFeature(*id, "cnn", feature).ok()) return 1;
  }
  std::printf("ingested %zu images\n", ids.size());

  // 4. Spatial query: everything within 1 km of downtown.
  auto nearby = tvdp.query().SpatialRange(
      geo::BoundingBox::FromCenterRadius({34.051, -118.249}, 1000));
  std::printf("spatial range      -> %zu hits\n", nearby->size());

  // 5. Visual query: top-2 most similar to image 0's feature.
  auto feature = tvdp.GetFeature(ids[0], "cnn");
  auto similar = tvdp.query().VisualTopK("cnn", *feature, 2);
  std::printf("visual top-2       -> first hit id=%lld (distance %.3f)\n",
              static_cast<long long>((*similar)[0].image_id),
              (*similar)[0].visual_distance);

  // 6. Categorical query: all encampment images.
  query::CategoricalPredicate cat;
  cat.classification = "street_cleanliness";
  cat.label = "encampment";
  auto tents = tvdp.query().Categorical(cat);
  std::printf("categorical        -> %zu encampment images\n", tents->size());

  // 7. Textual query.
  query::TextualPredicate text;
  text.keywords = {"tent"};
  auto tagged = tvdp.query().Textual(text);
  std::printf("textual 'tent'     -> %zu hits\n", tagged->size());

  // 8. Temporal query: first two hours.
  auto recent = tvdp.query().Temporal(1546300800, 1546300800 + 7199);
  std::printf("temporal           -> %zu hits\n", recent->size());

  // 9. Hybrid query: spatial AND categorical, planner-chosen order.
  query::HybridQuery hybrid;
  query::SpatialPredicate sp;
  sp.kind = query::SpatialPredicate::Kind::kRange;
  sp.range = geo::BoundingBox::FromCenterRadius({34.051, -118.249}, 1000);
  hybrid.spatial = sp;
  hybrid.categorical = cat;
  query::QueryPlan plan;
  auto hits =
      tvdp.query().Execute(hybrid, nullptr, query::QueryBudget(), &plan);
  std::printf("hybrid             -> %zu hits, plan: %s\n", hits->size(),
              plan.LegacySummary().c_str());

  // 10. Durable mode: the same facade over a crash-safe WAL + snapshot
  // store — reopening recovers everything committed.
  const std::string db = "/tmp/tvdp_quickstart_db";
  std::remove((db + ".snapshot").c_str());  // fresh run each invocation
  std::remove((db + ".wal").c_str());
  {
    auto durable = platform::Tvdp::Open(db);
    if (!durable.ok()) return 1;
    platform::ImageRecord rec;
    rec.uri = "quickstart://durable";
    rec.location = geo::GeoPoint{34.0553, -118.2430};
    rec.captured_at = 1546310000;
    if (!durable->IngestImage(rec).ok()) return 1;
  }  // "crash": the platform object goes away without any explicit save
  auto reopened = platform::Tvdp::Open(db);
  if (!reopened.ok()) return 1;
  std::printf("durable reopen     -> %zu image(s) recovered from WAL\n",
              reopened->image_count());
  return 0;
}
