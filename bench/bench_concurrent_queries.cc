// Concurrent query-serving benchmark: aggregate throughput (QPS) of the
// thread-safe platform facade as a function of client thread count, over
// visual, hybrid and mixed workloads. Emits a JSON summary (one object,
// keyed per workload) after the human-readable table, in the style of
// bench_durability.
//
// A second scenario measures read scaling under a sustained writer:
// reader pools of growing size run the mixed workload (lock-free reads of
// pinned MVCC snapshots) while one writer thread commits ingests
// continuously, and writes the curve to BENCH_mvcc.json at the repo root.
//
// Scaling is bounded by the host: on a single-core container every thread
// count serializes onto one CPU and the curve is flat — the JSON records
// hardware_concurrency so downstream tooling can interpret the numbers.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "platform/tvdp.h"
#include "query/engine.h"
#include "query/query.h"

namespace tvdp {
namespace {

using Clock = std::chrono::steady_clock;
using platform::AnnotationRecord;
using platform::ImageRecord;
using platform::Tvdp;

constexpr size_t kFeatureDim = 16;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A deterministic city-scale corpus: images on a jittered grid, 4 visual
/// clusters in 16-d feature space, alternating keywords and labels.
Tvdp BuildCorpus(int n_images) {
  auto created = Tvdp::Create();
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n", created.status().ToString().c_str());
    std::exit(1);
  }
  Tvdp tvdp = std::move(created).value();
  if (!tvdp.RegisterClassification("street_cleanliness",
                                   {"clean", "encampment"})
           .ok()) {
    std::exit(1);
  }
  Rng rng(17);
  for (int i = 0; i < n_images; ++i) {
    ImageRecord rec;
    rec.uri = "bench://img/" + std::to_string(i);
    rec.location = geo::GeoPoint{34.00 + rng.Uniform(0, 0.1),
                                 -118.30 + rng.Uniform(0, 0.1)};
    rec.captured_at = 1546300800 + i * 60;
    rec.keywords = i % 2 == 0 ? std::vector<std::string>{"tent", "street"}
                              : std::vector<std::string>{"clean", "street"};
    auto id = tvdp.IngestImage(rec);
    if (!id.ok()) std::exit(1);

    AnnotationRecord ann;
    ann.classification = "street_cleanliness";
    ann.label = i % 2 == 0 ? "encampment" : "clean";
    ann.confidence = 0.9;
    ann.machine = true;
    if (!tvdp.AnnotateImage(*id, ann).ok()) std::exit(1);

    // Clustered features: cluster center one-hot-ish + noise.
    ml::FeatureVector feat(kFeatureDim, 0.1);
    feat[static_cast<size_t>(i % 4)] = 1.0;
    for (double& v : feat) v += rng.Normal(0, 0.05);
    if (!tvdp.StoreFeature(*id, "cnn", feat).ok()) std::exit(1);
  }
  return tvdp;
}

ml::FeatureVector Probe(int salt) {
  ml::FeatureVector probe(kFeatureDim, 0.1);
  probe[static_cast<size_t>(salt % 4)] = 1.0;
  return probe;
}

/// One query of the given workload; `salt` varies the probe. Exits on any
/// query error (a benchmark that silently drops failed queries lies).
void QueryOnce(const Tvdp& tvdp, const std::string& workload, int salt,
               const geo::BoundingBox& region) {
  const query::QueryEngine& engine = tvdp.query();
  auto check = [](const auto& result) {
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  };
  if (workload == "visual") {
    if (salt % 2 == 0) {
      check(engine.VisualTopK("cnn", Probe(salt), 10));
    } else {
      check(engine.VisualThreshold("cnn", Probe(salt), 1.0));
    }
    return;
  }
  if (workload == "hybrid") {
    query::HybridQuery q;
    query::SpatialPredicate sp;
    sp.kind = query::SpatialPredicate::Kind::kRange;
    sp.range = region;
    q.spatial = sp;
    query::VisualPredicate vp;
    vp.kind = query::VisualPredicate::Kind::kThreshold;
    vp.feature_kind = "cnn";
    vp.feature = Probe(salt);
    vp.threshold = 1.0;
    q.visual = vp;
    query::TextualPredicate tp;
    tp.keywords = {salt % 2 == 0 ? "tent" : "clean"};
    q.textual = tp;
    check(engine.Execute(q));
    return;
  }
  // mixed: rotate through the remaining families.
  switch (salt % 5) {
    case 0:
      check(engine.SpatialRange(region));
      break;
    case 1:
      check(engine.SpatialKnn(geo::GeoPoint{34.05, -118.25}, 10));
      break;
    case 2: {
      query::TextualPredicate tp;
      tp.keywords = {"street"};
      check(engine.Textual(tp));
      break;
    }
    case 3:
      check(engine.Temporal(1546300800, 1546300800 + 1000 * 60));
      break;
    default: {
      query::CategoricalPredicate cp;
      cp.classification = "street_cleanliness";
      cp.label = "encampment";
      check(engine.Categorical(cp));
      break;
    }
  }
}

/// Runs `ops_per_thread` queries on each of `num_threads` client threads;
/// returns aggregate queries/second.
double RunWorkload(const Tvdp& tvdp, const std::string& workload,
                   int num_threads, int ops_per_thread,
                   const geo::BoundingBox& region) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads));
  auto start = Clock::now();
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < ops_per_thread; ++i) {
        QueryOnce(tvdp, workload, t * 131 + i, region);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double secs = SecondsSince(start);
  return num_threads * ops_per_thread / secs;
}

/// One measured point of the read-scaling scenario: `readers` client
/// threads issue mixed reads for `window_ms` while one writer commits
/// ingests continuously.
struct ScalePoint {
  int readers = 0;
  double read_qps = 0;
  double writer_commits_per_sec = 0;
  int64_t worst_commit_ms = 0;
};

ScalePoint MeasureReadScaling(Tvdp& tvdp, int readers, int window_ms,
                              const geo::BoundingBox& region,
                              std::atomic<int>* next_image) {
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        QueryOnce(tvdp, "mixed", r * 131 + i++, region);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::atomic<int64_t> commits{0};
  std::atomic<int64_t> worst_ms{0};
  std::thread writer([&] {
    Rng rng(41);
    while (!stop.load(std::memory_order_relaxed)) {
      ImageRecord rec;
      int i = next_image->fetch_add(1, std::memory_order_relaxed);
      rec.uri = "bench://churn/" + std::to_string(i);
      rec.location = geo::GeoPoint{34.00 + rng.Uniform(0, 0.1),
                                   -118.30 + rng.Uniform(0, 0.1)};
      rec.captured_at = 1546300800 + i * 60;
      auto t0 = Clock::now();
      if (!tvdp.IngestImage(rec).ok()) std::exit(1);
      auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - t0)
                    .count();
      commits.fetch_add(1, std::memory_order_relaxed);
      int64_t prev = worst_ms.load(std::memory_order_relaxed);
      while (ms > prev &&
             !worst_ms.compare_exchange_weak(prev, ms,
                                             std::memory_order_relaxed)) {
      }
    }
  });
  auto start = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(window_ms));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : pool) t.join();
  writer.join();
  double secs = SecondsSince(start);

  ScalePoint p;
  p.readers = readers;
  p.read_qps = static_cast<double>(reads.load()) / secs;
  p.writer_commits_per_sec = static_cast<double>(commits.load()) / secs;
  p.worst_commit_ms = worst_ms.load();
  return p;
}

/// Read-scaling under a sustained writer. Emits BENCH_mvcc.json (override
/// path via TVDP_BENCH_MVCC_OUT).
void RunReadScaling(Tvdp& tvdp, int n_images,
                    const geo::BoundingBox& region) {
  const int window_ms = bench::EnvInt("TVDP_BENCH_MVCC_WINDOW_MS", 1000);
  const char* out_env = std::getenv("TVDP_BENCH_MVCC_OUT");
  const std::string out_path = out_env ? out_env : "BENCH_mvcc.json";

  std::printf("== read scaling under a sustained writer "
              "(MVCC snapshot reads) ==\n");
  std::printf("%-10s %14s %16s %14s\n", "readers", "read QPS",
              "writer commits/s", "worst commit");

  std::atomic<int> next_image{n_images};
  Json points = Json::MakeArray();
  double qps_1 = 0, qps_max = 0;
  for (int readers : {1, 2, 4, 8, 16}) {
    ScalePoint p =
        MeasureReadScaling(tvdp, readers, window_ms, region, &next_image);
    std::printf("%-10d %14.0f %16.1f %11lldms\n", p.readers, p.read_qps,
                p.writer_commits_per_sec,
                static_cast<long long>(p.worst_commit_ms));
    if (readers == 1) qps_1 = p.read_qps;
    if (readers == 16) qps_max = p.read_qps;
    Json point = Json::MakeObject();
    point["readers"] = p.readers;
    point["read_qps"] = p.read_qps;
    point["writer_commits_per_sec"] = p.writer_commits_per_sec;
    point["worst_commit_ms"] = p.worst_commit_ms;
    points.Append(std::move(point));
  }

  Json out = Json::MakeObject();
  out["bench"] = "read_scaling_under_sustained_writer";
  out["images_at_start"] = n_images;
  out["window_ms"] = window_ms;
  out["hardware_concurrency"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  out["points"] = std::move(points);
  // Collapse detector: QPS at 16 readers relative to 1 reader. A
  // reader-starved lock would drive this toward zero; snapshot reads keep
  // it near (or above) 1 even on a saturated host.
  if (qps_1 > 0) out["mvcc_qps_ratio_16v1"] = qps_max / qps_1;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    std::exit(1);
  }
  std::string dump = out.Pretty();
  std::fwrite(dump.data(), 1, dump.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n\n", out_path.c_str());
}

int Run() {
  const int n_images = bench::EnvInt("TVDP_BENCH_CONC_IMAGES", 3000);
  const int ops = bench::EnvInt("TVDP_BENCH_CONC_OPS", 150);
  const int max_threads = bench::EnvInt("TVDP_BENCH_CONC_MAX_THREADS", 8);

  std::printf("== concurrent query serving: QPS vs client threads ==\n");
  std::printf("corpus: %d images, %zu-d features; %d queries/thread; "
              "hardware_concurrency=%u, shared pool workers=%zu\n\n",
              n_images, kFeatureDim, ops, std::thread::hardware_concurrency(),
              ThreadPool::Shared().size());

  Tvdp tvdp = BuildCorpus(n_images);
  geo::BoundingBox region =
      geo::BoundingBox::FromCorners({34.0, -118.3}, {34.1, -118.2});

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  Json summary = Json::MakeObject();
  summary["images"] = n_images;
  summary["ops_per_thread"] = ops;
  summary["hardware_concurrency"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  summary["pool_workers"] = static_cast<int64_t>(ThreadPool::Shared().size());

  for (const std::string workload : {"visual", "hybrid", "mixed"}) {
    std::printf("workload: %s\n", workload.c_str());
    std::printf("%-10s %14s %10s\n", "threads", "aggregate QPS", "speedup");
    Json points = Json::MakeArray();
    double qps_1 = 0, qps_4 = 0;
    for (int t : thread_counts) {
      double qps = RunWorkload(tvdp, workload, t, ops, region);
      if (t == 1) qps_1 = qps;
      if (t == 4) qps_4 = qps;
      std::printf("%-10d %14.0f %9.2fx\n", t, qps,
                  qps_1 > 0 ? qps / qps_1 : 0.0);
      Json point = Json::MakeObject();
      point["threads"] = t;
      point["qps"] = qps;
      points.Append(std::move(point));
    }
    summary[workload] = std::move(points);
    if (qps_1 > 0 && qps_4 > 0) {
      summary[workload + "_speedup_4v1"] = qps_4 / qps_1;
    }
    std::printf("\n");
  }

  std::printf("JSON: %s\n\n", summary.Dump().c_str());

  RunReadScaling(tvdp, n_images, region);
  return 0;
}

}  // namespace
}  // namespace tvdp

int main() { return tvdp::Run(); }
