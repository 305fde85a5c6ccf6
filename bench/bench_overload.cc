// Overload benchmark: goodput and tail latency of the API surface as
// offered load climbs past capacity, with the admission controller on vs
// off. Open-loop paced clients issue hybrid searches with a per-request
// deadline; a request counts toward goodput only if it returns "ok" within
// that deadline. Without admission control every request is dispatched,
// the engine oversubscribes the cores, latency inflates past the deadline
// and goodput collapses; with the controller the excess is shed or
// degraded quickly and goodput holds near capacity. Emits a JSON summary
// (one object) after the human-readable table, in the style of
// bench_concurrent_queries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/context.h"
#include "common/json.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "geo/geo_point.h"
#include "ml/dataset.h"
#include "platform/admission.h"
#include "platform/api.h"
#include "platform/model_registry.h"
#include "platform/tvdp.h"

namespace tvdp {
namespace {

using Clock = std::chrono::steady_clock;
using platform::AdmissionController;
using platform::AdmissionOptions;
using platform::ApiService;
using platform::ImageRecord;
using platform::ModelRegistry;
using platform::Tvdp;

constexpr size_t kFeatureDim = 16;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tvdp BuildCorpus(int n) {
  auto created = Tvdp::Create();
  if (!created.ok()) std::exit(1);
  Tvdp tvdp = std::move(created).value();
  Rng rng(2019);
  for (int i = 0; i < n; ++i) {
    ImageRecord rec;
    rec.uri = "img" + std::to_string(i);
    rec.location = geo::GeoPoint{34.00 + (i % 64) * 0.0015,
                                 -118.30 + ((i / 64) % 64) * 0.0015};
    rec.captured_at = 1546300800 + i * 60;
    rec.keywords = {"street", i % 2 == 0 ? "tent" : "clean"};
    auto id = tvdp.IngestImage(rec);
    if (!id.ok()) std::exit(1);
    ml::FeatureVector feat(kFeatureDim, 0.1);
    feat[static_cast<size_t>(i % 4)] = 1.0;
    for (double& v : feat) v += rng.Normal(0, 0.05);
    if (!tvdp.StoreFeature(*id, "cnn", feat).ok()) std::exit(1);
  }
  return tvdp;
}

/// A deliberately expensive hybrid: a visual *threshold* wide enough to
/// match most of the corpus (the LSH range search scans and ranks
/// thousands of candidates) verified against a spatial box. Service time
/// scales with the corpus, which is what makes overload measurable.
Json SearchRequest(int salt) {
  Json req = Json::MakeObject();
  Json bbox = Json::MakeArray();
  bbox.Append(34.0);
  bbox.Append(-118.3);
  bbox.Append(34.1);
  bbox.Append(-118.2);
  req["bbox"] = std::move(bbox);
  Json feature = Json::MakeArray();
  for (size_t d = 0; d < kFeatureDim; ++d) {
    feature.Append(d == static_cast<size_t>(salt % 4) ? 1.0 : 0.1);
  }
  req["feature_kind"] = "cnn";
  req["feature"] = std::move(feature);
  // Catches the probe's own cluster (~a quarter of the corpus): enough
  // candidate traffic to give the query a real, corpus-proportional cost
  // without degenerating into a full scan.
  req["threshold"] = 0.8;
  return req;
}

struct CellResult {
  double offered_qps = 0;
  double goodput_qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  long ok = 0;
  long degraded = 0;
  long shed = 0;
  long deadline_missed = 0;
  long other_error = 0;
  long issued = 0;
};

/// Open-loop load generation: each of `threads` clients issues requests on
/// an absolute schedule at offered_qps/threads. Latency and the deadline
/// are accounted from the *scheduled* arrival time, not the issue time —
/// a client that falls behind carries that lateness into each request's
/// budget (the standard coordinated-omission correction; measuring from
/// issue time would hide exactly the queueing delay this benchmark is
/// about). Arrivals whose whole budget elapsed before the client could
/// issue them are counted as missed without a round trip, the way a real
/// caller's timeout fires client-side.
CellResult RunCell(ApiService& api, const std::string& key, double offered_qps,
                   double deadline_ms, double duration_s, int threads) {
  CellResult cell;
  cell.offered_qps = offered_qps;
  std::mutex mu;
  std::vector<double> ok_latencies;
  std::vector<std::thread> clients;
  auto start = Clock::now();
  auto end = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(duration_s));
  std::atomic<long> ok{0}, degraded{0}, shed{0}, missed{0}, other{0},
      issued{0};
  double period_s = static_cast<double>(threads) / offered_qps;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<double> local_lat;
      auto next = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  period_s * t / threads));
      int salt = t * 131;
      for (;;) {
        auto scheduled = next;
        if (scheduled >= end) break;
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(period_s));
        if (scheduled > Clock::now()) std::this_thread::sleep_until(scheduled);
        issued.fetch_add(1);
        double lateness_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count();
        if (lateness_ms >= deadline_ms) {
          missed.fetch_add(1);  // budget burned before the client could send
          continue;
        }
        RequestContext ctx =
            RequestContext::WithDeadlineMs(deadline_ms - lateness_ms);
        Json env = api.HandleEnvelope(key, "search_datasets",
                                      SearchRequest(salt++), ctx);
        double lat_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count();
        if (env["status"].AsString() == "ok") {
          if (lat_ms <= deadline_ms) {
            ok.fetch_add(1);
            local_lat.push_back(lat_ms);
            if (env.Has("degraded")) degraded.fetch_add(1);
          } else {
            missed.fetch_add(1);  // finished, but past its deadline
          }
        } else {
          const std::string code = env["code"].AsString();
          if (code == "ResourceExhausted") {
            shed.fetch_add(1);
          } else if (code == "DeadlineExceeded" || code == "Cancelled") {
            missed.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      ok_latencies.insert(ok_latencies.end(), local_lat.begin(),
                          local_lat.end());
    });
  }
  for (auto& c : clients) c.join();
  double secs = SecondsSince(start);
  cell.ok = ok.load();
  cell.degraded = degraded.load();
  cell.shed = shed.load();
  cell.deadline_missed = missed.load();
  cell.other_error = other.load();
  cell.issued = issued.load();
  cell.goodput_qps = static_cast<double>(cell.ok) / secs;
  cell.p50_ms = Percentile(ok_latencies, 50);
  cell.p99_ms = Percentile(ok_latencies, 99);
  return cell;
}

Json CellJson(const CellResult& cell) {
  Json j = Json::MakeObject();
  j["offered_qps"] = cell.offered_qps;
  j["goodput_qps"] = cell.goodput_qps;
  j["p50_ms"] = cell.p50_ms;
  j["p99_ms"] = cell.p99_ms;
  j["ok"] = static_cast<int64_t>(cell.ok);
  j["degraded"] = static_cast<int64_t>(cell.degraded);
  j["shed"] = static_cast<int64_t>(cell.shed);
  j["deadline_missed"] = static_cast<int64_t>(cell.deadline_missed);
  j["other_error"] = static_cast<int64_t>(cell.other_error);
  j["issued"] = static_cast<int64_t>(cell.issued);
  return j;
}

int Run() {
  const int n_images = bench::EnvInt("TVDP_BENCH_OVERLOAD_IMAGES", 1500);
  const int clients = bench::EnvInt("TVDP_BENCH_OVERLOAD_CLIENTS", 16);
  const int duration_ms = bench::EnvInt("TVDP_BENCH_OVERLOAD_CELL_MS", 1500);
  const int deadline_ms = bench::EnvInt("TVDP_BENCH_OVERLOAD_DEADLINE_MS", 25);
  const double duration_s = duration_ms / 1000.0;

  Tvdp tvdp = BuildCorpus(n_images);
  ModelRegistry registry;

  std::printf("== overload: goodput vs offered load, admission on/off ==\n");
  std::printf("corpus: %d images; %d open-loop clients; deadline %dms; "
              "%dms per cell; hardware_concurrency=%u\n\n",
              n_images, clients, deadline_ms, duration_ms,
              std::thread::hardware_concurrency());

  // Calibrate capacity with one closed-loop client, no deadline pressure.
  double base_qps;
  {
    ApiService api(&tvdp, &registry);
    std::string key = api.CreateApiKey("bench");
    auto start = Clock::now();
    int done = 0;
    while (SecondsSince(start) < 0.5) {
      Json env = api.HandleEnvelope(key, "search_datasets",
                                    SearchRequest(done));
      if (env["status"].AsString() != "ok") {
        std::fprintf(stderr, "calibration query failed: %s\n",
                     env.Dump().c_str());
        return 1;
      }
      ++done;
    }
    base_qps = done / SecondsSince(start);
  }
  std::printf("calibrated capacity: %.0f qps (single closed-loop client)\n\n",
              base_qps);

  Json summary = Json::MakeObject();
  summary["images"] = n_images;
  summary["clients"] = clients;
  summary["deadline_ms"] = deadline_ms;
  summary["base_qps"] = base_qps;
  summary["hardware_concurrency"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());

  const std::vector<double> multipliers = {0.5, 1, 2, 4, 8};
  for (bool controlled : {false, true}) {
    // The controller sizes its queues to roughly one deadline's worth of
    // work: waiters beyond that would be served stale anyway. The wait
    // bound is a fraction of the deadline — a waiter that has already
    // burned a third of its budget queueing is better shed (the client
    // retries or fails fast) than served stale, and degradation starts as
    // soon as any backlog forms.
    AdmissionOptions opt;
    opt.max_concurrent = 2;
    opt.max_queue_interactive =
        std::max(4, static_cast<int>(base_qps * deadline_ms / 1000.0 / 4));
    opt.max_queue_batch = 8;
    opt.max_queue_wait_ms = deadline_ms / 3.0;
    opt.degrade_occupancy = 0.1;
    // Hold degraded plans for one deadline after the last backlog so
    // full-fidelity work does not flap back in between overload bursts.
    opt.degraded_hold_ms = deadline_ms;
    AdmissionController controller(opt);
    ApiService api(&tvdp, &registry,
                   controlled ? &controller : nullptr);
    std::string key = api.CreateApiKey("bench");

    std::printf("admission controller: %s\n", controlled ? "ON" : "OFF");
    std::printf("%-10s %12s %12s %9s %9s %8s %8s %8s\n", "load", "offered",
                "goodput", "p50 ms", "p99 ms", "ok", "shed", "missed");
    Json points = Json::MakeArray();
    double peak = 0, goodput_4x = 0;
    for (double mult : multipliers) {
      CellResult cell = RunCell(api, key, mult * base_qps, deadline_ms,
                                duration_s, clients);
      peak = std::max(peak, cell.goodput_qps);
      if (mult == 4) goodput_4x = cell.goodput_qps;
      std::printf("%-9.1fx %12.0f %12.0f %9.2f %9.2f %8ld %8ld %8ld\n", mult,
                  cell.offered_qps, cell.goodput_qps, cell.p50_ms, cell.p99_ms,
                  cell.ok, cell.shed, cell.deadline_missed);
      Json point = CellJson(cell);
      point["load_multiplier"] = mult;
      points.Append(std::move(point));
    }
    const std::string mode = controlled ? "controller_on" : "controller_off";
    summary[mode] = std::move(points);
    summary[mode + "_peak_goodput"] = peak;
    summary[mode + "_goodput_4x"] = goodput_4x;
    summary[mode + "_goodput_4x_vs_peak"] = peak > 0 ? goodput_4x / peak : 0;
    if (controlled) {
      Json stats = api.ServerStatsJson();
      std::printf("controller stats: %s\n", stats.Dump().c_str());
      summary["controller_stats"] = std::move(stats);
    }
    std::printf("\n");
  }

  std::printf("JSON: %s\n", summary.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace tvdp

int main() { return tvdp::Run(); }
