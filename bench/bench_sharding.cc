// Sharding benchmark: capacity scaling and fault tolerance of the
// scatter-gather serving layer.
//
// Part A (scaling): the same corpus behind 1/2/4/8 shards over a 2x4
// grid, probed with cell-sized range queries. Region pruning routes each
// query to the one shard owning its cell, so the corpus (and the engine
// lock) a query touches shrinks as 1/N — reported as
// `probed_images_per_query` and its near-linear `capacity_scale_vs_1`.
// That is the capacity model: N isolated engines serve N disjoint-cell
// queries independently, so aggregate capacity scales with min(N, cores).
// Single-query wall-clock (`speedup_vs_1`) improves more modestly because
// the within-shard spatial index already confines probe cost to the cell
// population at any shard count.
//
// Part B (fault tolerance): N = 4 shards under a 60 ms request deadline
// with one faulty shard — a straggler that hangs 20% of its probes for
// longer than the whole deadline, and a dead shard. The resilient
// configuration (hedged probes, per-shard deadline splitting, circuit
// breakers, partial results) keeps success at 100% with explicit
// (N-1)/N coverage and p99 bounded by the per-shard budget; the naive
// configuration (no hedging, no breakers, full-coverage-required, no
// deadline split) collapses into timeouts.
//
// Emits a human-readable table, then writes the JSON summary to
// BENCH_sharding.json (override with TVDP_BENCH_SHARDING_OUT) and echoes
// it on stdout.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/context.h"
#include "common/json.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "geo/bbox.h"
#include "geo/geo_point.h"
#include "platform/sharding.h"
#include "query/query.h"

namespace tvdp {
namespace {

using platform::ImageRecord;
using platform::ShardFaultProfile;
using platform::ShardManager;
using platform::ShardManagerOptions;

using Clock = std::chrono::steady_clock;

constexpr int kGridRows = 2;
constexpr int kGridCols = 4;
constexpr double kLat0 = 34.00, kLat1 = 34.08;
constexpr double kLon0 = -118.30, kLon1 = -118.14;

geo::BoundingBox Region() {
  return geo::BoundingBox::FromCorners({kLat0, kLon0}, {kLat1, kLon1});
}

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::unique_ptr<ShardManager> BuildFleet(int shards, int n_images,
                                         ShardManagerOptions opts) {
  opts.shard_count = shards;
  opts.grid_rows = kGridRows;
  opts.grid_cols = kGridCols;
  opts.region = Region();
  // Range partitioning: contiguous cell blocks per shard, so each shard's
  // prune region is tight. (The round-robin default interleaves cells,
  // which makes bounding-box unions overlap across shards.)
  const int cells = kGridRows * kGridCols;
  for (int cell = 0; cell < cells; ++cell) {
    opts.cell_assignments.emplace_back(cell, cell * shards / cells);
  }
  auto m = ShardManager::Create(std::move(opts));
  if (!m.ok()) {
    std::fprintf(stderr, "fleet: %s\n", m.status().ToString().c_str());
    std::exit(1);
  }
  Rng rng(2019);
  for (int i = 0; i < n_images; ++i) {
    ImageRecord rec;
    rec.uri = "img" + std::to_string(i);
    rec.location = geo::GeoPoint{rng.Uniform(kLat0, kLat1),
                                 rng.Uniform(kLon0, kLon1)};
    rec.captured_at = 1546300800 + i * 60;
    rec.keywords = {"city"};
    if (i % 7 == 0) rec.keywords.push_back("market");
    auto id = (*m)->IngestImage(rec);
    if (!id.ok()) std::exit(1);
  }
  return std::move(m).value();
}

/// A cell-sized range + keyword query over a random grid cell.
query::HybridQuery CellQuery(Rng& rng) {
  int row = static_cast<int>(rng.UniformInt(0, kGridRows - 1));
  int col = static_cast<int>(rng.UniformInt(0, kGridCols - 1));
  const double dlat = (kLat1 - kLat0) / kGridRows;
  const double dlon = (kLon1 - kLon0) / kGridCols;
  query::HybridQuery q;
  query::SpatialPredicate sp;
  sp.kind = query::SpatialPredicate::Kind::kRange;
  // Shrink the box slightly so it stays inside one cell.
  sp.range = geo::BoundingBox::FromCorners(
      {kLat0 + row * dlat + 0.1 * dlat, kLon0 + col * dlon + 0.1 * dlon},
      {kLat0 + (row + 1) * dlat - 0.1 * dlat,
       kLon0 + (col + 1) * dlon - 0.1 * dlon});
  q.spatial = sp;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  return q;
}

Json RunScaling(int n_images, int n_queries) {
  std::printf("--- capacity scaling (partition pruning), %d images ---\n",
              n_images);
  std::printf("%8s %10s %10s %10s %10s %12s %10s\n", "shards", "qps",
              "p50_ms", "p99_ms", "speedup", "probed_imgs", "capacity");
  Json rows = Json::MakeArray();
  double base_qps = 0, base_probed = 0;
  for (int shards : {1, 2, 4, 8}) {
    auto fleet = BuildFleet(shards, n_images, ShardManagerOptions());
    std::vector<double> shard_images(static_cast<size_t>(shards), 0);
    for (int s = 0; s < shards; ++s) {
      shard_images[static_cast<size_t>(s)] =
          fleet->shard(s) ? static_cast<double>(fleet->shard(s)->image_count())
                          : 0;
    }
    Rng rng(7);
    std::vector<double> lat;
    lat.reserve(static_cast<size_t>(n_queries));
    double probed_images = 0;
    auto start = Clock::now();
    for (int i = 0; i < n_queries; ++i) {
      query::HybridQuery q = CellQuery(rng);
      auto t0 = Clock::now();
      auto r = fleet->ExecuteQuery(q);
      lat.push_back(ElapsedMs(t0));
      if (!r.ok() || !r->coverage.complete()) {
        std::fprintf(stderr, "scaling query failed\n");
        std::exit(1);
      }
      for (int s : r->coverage.ProbedShards()) {
        probed_images += shard_images[static_cast<size_t>(s)];
      }
    }
    double qps = 1000.0 * n_queries / ElapsedMs(start);
    probed_images /= n_queries;
    if (shards == 1) {
      base_qps = qps;
      base_probed = probed_images;
    }
    double speedup = qps / base_qps;
    double capacity = base_probed / probed_images;
    std::printf("%8d %10.1f %10.3f %10.3f %10.2f %12.0f %9.2fx\n", shards,
                qps, Percentile(lat, 50), Percentile(lat, 99), speedup,
                probed_images, capacity);
    Json row = Json::MakeObject();
    row["shards"] = Json(shards);
    row["queries"] = Json(n_queries);
    row["qps"] = Json(qps);
    row["p50_ms"] = Json(Percentile(lat, 50));
    row["p99_ms"] = Json(Percentile(lat, 99));
    row["speedup_vs_1"] = Json(speedup);
    row["probed_images_per_query"] = Json(probed_images);
    row["capacity_scale_vs_1"] = Json(capacity);
    rows.Append(std::move(row));
  }
  return rows;
}

struct FaultCell {
  std::string scenario;  // "hang_straggler" | "dead_shard"
  std::string config;    // "resilient" | "naive"
  int queries = 0;
  int succeeded = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double avg_coverage = 0;  // answering shards / total shards
};

FaultCell RunFaultCell(const std::string& scenario, const std::string& config,
                       int n_images, int n_queries, double deadline_ms) {
  ShardManagerOptions opts;
  const bool resilient = config == "resilient";
  if (!resilient) {
    // The naive configuration: one probe per shard with the full request
    // deadline, no breakers, and all-or-nothing gathering.
    opts.gather.hedging = false;
    opts.gather.per_shard_deadline_fraction = 1.0;
    opts.gather.require_full_coverage = true;
    opts.breakers = false;
  }
  auto fleet = BuildFleet(4, n_images, std::move(opts));
  if (scenario == "hang_straggler") {
    ShardFaultProfile faults;
    faults.hang_prob = 0.2;             // 20% of probes hang...
    faults.hang_ms = 4 * deadline_ms;   // ...for far longer than the deadline
    if (!fleet->SetShardFaults(0, faults).ok()) std::exit(1);
  } else if (!fleet->KillShard(0).ok()) {
    std::exit(1);
  }

  query::HybridQuery q;  // broad: every shard participates
  query::TextualPredicate tp;
  tp.keywords = {"market"};
  q.textual = tp;

  FaultCell cell;
  cell.scenario = scenario;
  cell.config = config;
  cell.queries = n_queries;
  std::vector<double> lat;
  double coverage_sum = 0;
  for (int i = 0; i < n_queries; ++i) {
    RequestContext ctx = RequestContext::WithDeadlineMs(deadline_ms);
    auto t0 = Clock::now();
    auto r = fleet->ExecuteQuery(q, &ctx);
    lat.push_back(ElapsedMs(t0));
    if (r.ok()) {
      ++cell.succeeded;
      coverage_sum += static_cast<double>(r->coverage.ProbedShards().size()) /
                      static_cast<double>(r->coverage.total_shards);
    }
  }
  cell.p50_ms = Percentile(lat, 50);
  cell.p99_ms = Percentile(lat, 99);
  cell.avg_coverage = cell.succeeded ? coverage_sum / cell.succeeded : 0;
  return cell;
}

Json RunFaults(int n_images, int n_queries, double deadline_ms) {
  std::printf(
      "--- fault tolerance, 4 shards, %.0f ms deadline, %d queries ---\n",
      deadline_ms, n_queries);
  std::printf("%16s %10s %9s %9s %9s %9s\n", "scenario", "config",
              "success", "p50_ms", "p99_ms", "coverage");
  Json rows = Json::MakeArray();
  for (const char* scenario : {"hang_straggler", "dead_shard"}) {
    for (const char* config : {"resilient", "naive"}) {
      FaultCell c =
          RunFaultCell(scenario, config, n_images, n_queries, deadline_ms);
      double success = static_cast<double>(c.succeeded) / c.queries;
      std::printf("%16s %10s %8.1f%% %9.2f %9.2f %9.2f\n", c.scenario.c_str(),
                  c.config.c_str(), 100.0 * success, c.p50_ms, c.p99_ms,
                  c.avg_coverage);
      Json row = Json::MakeObject();
      row["scenario"] = Json(c.scenario);
      row["config"] = Json(c.config);
      row["queries"] = Json(c.queries);
      row["success_rate"] = Json(success);
      row["p50_ms"] = Json(c.p50_ms);
      row["p99_ms"] = Json(c.p99_ms);
      row["avg_coverage"] = Json(c.avg_coverage);
      rows.Append(std::move(row));
    }
  }
  return rows;
}

/// Part C: a live cell migration under sustained query load. The broad
/// keyword query touches every shard — including both migration endpoints —
/// in all three windows (before / during / after the rebalance). Success
/// must hold at 100% throughout: during the migration both endpoints serve
/// the moving rows and the merge dedups, so coverage stays complete too.
Json RunRebalance(int n_images, int n_queries) {
  std::printf("--- rebalance while serving, 4 shards ---\n");
  std::printf("%8s %9s %9s %10s %9s %9s\n", "phase", "queries", "success",
              "complete", "p50_ms", "p99_ms");
  auto fleet = BuildFleet(4, n_images, ShardManagerOptions());

  query::HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;

  Json rows = Json::MakeArray();
  auto run_phase = [&](const std::string& phase, int min_queries,
                       const std::function<bool()>& busy) {
    int n = 0, ok = 0, complete = 0;
    std::vector<double> lat;
    while (n < min_queries || (busy && busy())) {
      auto t0 = Clock::now();
      auto r = fleet->ExecuteQuery(q);
      lat.push_back(ElapsedMs(t0));
      ++n;
      if (r.ok()) {
        ++ok;
        if (r->coverage.complete()) ++complete;
      }
    }
    double success = static_cast<double>(ok) / n;
    double complete_rate = static_cast<double>(complete) / n;
    std::printf("%8s %9d %8.1f%% %9.1f%% %9.2f %9.2f\n", phase.c_str(), n,
                100.0 * success, 100.0 * complete_rate,
                Percentile(lat, 50), Percentile(lat, 99));
    Json row = Json::MakeObject();
    row["phase"] = Json(phase);
    row["queries"] = Json(n);
    row["success_rate"] = Json(success);
    row["coverage_complete_rate"] = Json(complete_rate);
    row["p50_ms"] = Json(Percentile(lat, 50));
    row["p99_ms"] = Json(Percentile(lat, 99));
    rows.Append(std::move(row));
    return success;
  };

  run_phase("before", n_queries, nullptr);

  // Move shard 0's cells to shard 1 while the query loop keeps running.
  std::atomic<bool> migrating{true};
  Json report;
  std::thread mover([&] {
    auto r = fleet->RebalanceCells({0, 1}, 0, 1);
    if (!r.ok()) {
      std::fprintf(stderr, "rebalance: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    report = *std::move(r);
    migrating = false;
  });
  run_phase("during", 1, [&] { return migrating.load(); });
  mover.join();

  run_phase("after", n_queries, nullptr);

  Json out = Json::MakeObject();
  out["cells_moved"] = report["cells"];
  out["rows_copied"] = report["rows_copied"];
  out["rows_caught_up"] = report["rows_caught_up"];
  out["phases"] = std::move(rows);
  return out;
}

/// Part D: failover under load. 4 durable shards with replication factor
/// 2 (sync shipping); a mixed read/write load runs while one primary is
/// killed mid-run and its replica auto-promoted. Success and coverage
/// must hold at 100% through all three windows (failed-over reads count
/// as complete — the replica serves the exact rows), and every acked
/// write must be readable at the end: lost_acked_writes stays 0 because
/// sync shipping plus the promotion's WAL-tail apply phase covers even
/// records the crash stranded in the capture channel.
Json RunFailover(int n_images, int n_queries) {
  std::printf("--- failover while serving, 4 shards x 2 copies ---\n");
  std::printf("%8s %9s %9s %10s %9s %9s\n", "phase", "queries", "success",
              "complete", "p50_ms", "p99_ms");
  std::string dir = "/tmp/tvdp_bench_failoverXXXXXX";
  if (!mkdtemp(dir.data())) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  ShardManagerOptions opts;
  opts.base_path = dir;
  opts.replication.replication_factor = 2;
  auto fleet = BuildFleet(4, n_images, std::move(opts));

  query::HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;

  // Writer: acked global ids are the contract — each one must still be
  // readable after the failover.
  std::atomic<bool> done{false};
  std::vector<int64_t> acked;
  std::thread writer([&] {
    Rng rng(77);
    int i = 0;
    while (!done.load()) {
      ImageRecord rec;
      rec.uri = "live" + std::to_string(i++);
      rec.location = geo::GeoPoint{rng.Uniform(kLat0, kLat1),
                                   rng.Uniform(kLon0, kLon1)};
      rec.keywords = {"city", "live"};
      auto id = fleet->IngestImage(rec);
      if (id.ok()) acked.push_back(*id);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  Json rows = Json::MakeArray();
  auto run_phase = [&](const std::string& phase, int min_queries,
                       const std::function<bool()>& busy) {
    int n = 0, ok = 0, complete = 0;
    std::vector<double> lat;
    while (n < min_queries || (busy && busy())) {
      auto t0 = Clock::now();
      auto r = fleet->ExecuteQuery(q);
      lat.push_back(ElapsedMs(t0));
      ++n;
      if (r.ok()) {
        ++ok;
        if (r->coverage.complete()) ++complete;
      }
    }
    double success = static_cast<double>(ok) / n;
    double complete_rate = static_cast<double>(complete) / n;
    std::printf("%8s %9d %8.1f%% %9.1f%% %9.2f %9.2f\n", phase.c_str(), n,
                100.0 * success, 100.0 * complete_rate, Percentile(lat, 50),
                Percentile(lat, 99));
    Json row = Json::MakeObject();
    row["phase"] = Json(phase);
    row["queries"] = Json(n);
    row["success_rate"] = Json(success);
    row["coverage_complete_rate"] = Json(complete_rate);
    row["p50_ms"] = Json(Percentile(lat, 50));
    row["p99_ms"] = Json(Percentile(lat, 99));
    rows.Append(std::move(row));
  };

  run_phase("before", n_queries, nullptr);

  // Kill shard 0's primary mid-load; the kill auto-promotes its replica
  // (ship / apply WAL tail / ack / promote / fence / flip) in-line.
  std::atomic<bool> failing{true};
  std::thread killer([&] {
    if (!fleet->KillShard(0).ok()) {
      std::fprintf(stderr, "kill failed\n");
      std::exit(1);
    }
    failing = false;
  });
  run_phase("during", 1, [&] { return failing.load(); });
  killer.join();
  run_phase("after", n_queries, nullptr);

  done = true;
  writer.join();

  size_t lost = 0;
  for (int64_t id : acked) {
    if (!fleet->ImageRowJson(id).ok()) ++lost;
  }
  std::printf("failover: epoch %lld on shard 0, %zu acked writes, %zu lost\n",
              static_cast<long long>(fleet->shard_epoch(0)), acked.size(),
              lost);

  Json out = Json::MakeObject();
  out["replication_factor"] = Json(2);
  out["killed_shard"] = Json(0);
  out["new_epoch"] = Json(fleet->shard_epoch(0));
  out["promoted_primary_index"] = Json(fleet->shard_primary_index(0));
  out["acked_writes"] = Json(static_cast<int64_t>(acked.size()));
  out["lost_acked_writes"] = Json(static_cast<int64_t>(lost));
  out["phases"] = std::move(rows);
  return out;
}

int Run() {
  const int n_images = bench::EnvInt("TVDP_BENCH_N", 2000);
  const int scaling_queries = bench::EnvInt("TVDP_BENCH_SHARD_QUERIES", 400);
  const int fault_queries = bench::EnvInt("TVDP_BENCH_FAULT_QUERIES", 120);
  const double deadline_ms = bench::EnvInt("TVDP_BENCH_DEADLINE_MS", 60);

  Json summary = Json::MakeObject();
  summary["bench"] = Json(std::string("sharding"));
  summary["images"] = Json(n_images);
  summary["grid"] = Json(Json::Array{kGridRows, kGridCols});
  summary["scaling"] = RunScaling(n_images, scaling_queries);
  summary["fault_tolerance"] = Json::MakeObject();
  summary["fault_tolerance"]["deadline_ms"] = Json(deadline_ms);
  summary["fault_tolerance"]["scenarios"] =
      RunFaults(n_images, fault_queries, deadline_ms);
  summary["rebalance"] = RunRebalance(n_images, fault_queries);
  summary["failover"] = RunFailover(n_images, fault_queries);

  const char* out_env = std::getenv("TVDP_BENCH_SHARDING_OUT");
  const std::string out_path = out_env && *out_env
                                   ? std::string(out_env)
                                   : std::string("BENCH_sharding.json");
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(summary.Pretty().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("JSON: %s\n", summary.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace tvdp

int main() { return tvdp::Run(); }
