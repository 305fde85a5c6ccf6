#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "corpus.h"
#include "measure.h"
#include "platform/admission.h"
#include "platform/api.h"
#include "platform/model_registry.h"
#include "platform/sharding.h"
#include "query/scatter_gather.h"
#include "storage/durable_catalog.h"
#include "storage/tvdp_schema.h"

namespace tvdp::e2e {
namespace {

using platform::ShardManager;
using platform::Tvdp;
using query::HybridQuery;

constexpr int kShards = 4;
constexpr int kGridRows = 2;
constexpr int kGridCols = 4;
constexpr int kCheckEvery = 16;  // 1-in-16 reads are checked against an oracle
constexpr size_t kMaxChecksPerClient = 160;  // reservoir: bounds oracle cost
constexpr int kRecallQueries = 200;
// Below this the visual index is broken, not merely approximate (a smoke
// fleet's sparse LSH buckets still reach ~0.65).
constexpr double kMinRecall = 0.5;
constexpr int kIngestProbe = 50;
constexpr int kRetentionDeletes = 4;
constexpr int kBatteryCalls = 50;  // per index family and engine
constexpr size_t kMaxSetups = 3;
constexpr double kSetupBudgetMs = 5000;
constexpr int kTopK = 10;
constexpr int kLimit = 100;
constexpr size_t kDownloadIds = 20;
constexpr double kGaugeIntervalMs = 100;

// Independent random streams derived from --seed.
enum Stream : uint64_t {
  kClientStream = 1,  // + client index
  kRecallStream = 100,
  kBatteryStream = 101,
  kEquivalenceStream = 102,
};
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x100000001B3ULL + stream;
}

enum class Mix { kSearch, kFleet };

/// One workload; README.md says why each exists.
struct Spec {
  const char* name;
  int images;      ///< default catalog size
  bool sharded;    ///< 4 durable shards (2x4 grid, 2 copies) vs one engine
  int readers;     ///< closed-loop read clients
  Mix mix;
  int writers;     ///< closed-loop add_data clients that read uploads back
  double writer_rate;  ///< open-loop add_data per second (0 = none)
};

constexpr Spec kSpecs[] = {
    {"search", 22000, false, 2, Mix::kSearch, 0, 0},
    {"search_under_ingest", 22000, false, 2, Mix::kSearch, 0, 3},
    {"ingest_retention", 5000, false, 0, Mix::kSearch, 4, 0},
    {"sharded_fleet", 8000, true, 2, Mix::kFleet, 0, 10},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

void SleepUntil(double ms) {
  const double left = ms - NowMs();
  if (left > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(left));
  }
}

// ---------------------------------------------------------------------------
// What the benchmark put into the system: the oracle side of every check.

struct Known {
  Image image;
  bool annotated = false;  ///< seeded images carry a machine label
};

class Truth {
 public:
  void Add(int64_t id, const Image& image, bool annotated) {
    std::lock_guard<std::mutex> lock(mutex_);
    known_[id] = Known{image, annotated};
  }
  void Remove(int64_t id) {
    std::lock_guard<std::mutex> lock(mutex_);
    known_.erase(id);
  }
  /// Valid until the id is removed.
  const Known* Find(int64_t id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = known_.find(id);
    return it == known_.end() ? nullptr : &it->second;
  }
  /// Ids whose image satisfies `pred`, ascending.
  std::vector<int64_t> Select(
      const std::function<bool(int64_t, const Known&)>& pred) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int64_t> out;
    for (const auto& [id, k] : known_) {
      if (pred(id, k)) out.push_back(id);
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<int64_t, Known> known_;
};

// ---------------------------------------------------------------------------
// Requests: the JSON body the API receives plus the HybridQuery it parses
// into, so traced runs can replay the same query layer by layer.

enum class Kind {
  kBbox,
  kTemporal,
  kTextual,
  kCategorical,
  kVisual,
  kFig9,  ///< translational: bbox + encampment + time window
  kDownload,
  kCellKeyword,      ///< fleet: bbox inside one grid cell + keyword
  kFleetEncampment,  ///< fleet: encampment + visual top-10
  kReadBack,         ///< a closed-loop writer finding its own upload
};

struct Request {
  Kind kind = Kind::kBbox;
  std::string endpoint = "search_datasets";
  Json body = Json::MakeObject();
  HybridQuery query;
  std::vector<int64_t> ids;  ///< download_datasets
  int64_t expect_id = 0;     ///< read-back: the upload that must be found
};

void SetBox(Request* r, const geo::BoundingBox& b) {
  Json box = Json::MakeArray();
  for (double v : {b.min_lat, b.min_lon, b.max_lat, b.max_lon}) box.Append(v);
  r->body["bbox"] = std::move(box);
  query::SpatialPredicate sp;
  sp.kind = query::SpatialPredicate::Kind::kRange;
  sp.range = b;
  r->query.spatial = sp;
}

void SetTime(Request* r, Timestamp begin, Timestamp end) {
  r->body["time_begin"] = begin;
  r->body["time_end"] = end;
  r->query.temporal = query::TemporalPredicate{begin, end};
}

void SetKeywords(Request* r, const std::vector<std::string>& keywords) {
  Json kws = Json::MakeArray();
  for (const std::string& kw : keywords) kws.Append(kw);
  r->body["keywords"] = std::move(kws);
  query::TextualPredicate tp;
  tp.keywords = keywords;
  r->query.textual = tp;
}

void SetLabel(Request* r, int label) {
  r->body["classification"] = kTask;
  r->body["label"] = kLabels[static_cast<size_t>(label)];
  query::CategoricalPredicate cp;
  cp.classification = kTask;
  cp.label = kLabels[static_cast<size_t>(label)];
  r->query.categorical = cp;
}

void SetVisual(Request* r, const ml::FeatureVector& feature) {
  Json f = Json::MakeArray();
  for (double x : feature) f.Append(x);
  r->body["feature"] = std::move(f);
  r->body["feature_kind"] = kFeatureKind;
  r->body["k"] = kTopK;
  query::VisualPredicate vp;
  vp.feature_kind = kFeatureKind;
  vp.feature = feature;
  vp.k = kTopK;
  r->query.visual = vp;
}

void SetLimit(Request* r, int limit) {
  r->body["limit"] = limit;
  r->query.limit = limit;
}

class RequestGen {
 public:
  RequestGen(const Corpus* corpus, int64_t seeded)
      : corpus_(corpus), seeded_(seeded) {}

  Request Next(Mix mix, Rng& rng, const std::vector<int64_t>& recent) const {
    static const std::vector<Kind> kSearchKinds = {
        Kind::kBbox,   Kind::kTemporal, Kind::kTextual, Kind::kCategorical,
        Kind::kVisual, Kind::kFig9,     Kind::kDownload};
    static const std::vector<double> kSearchWeights = {20, 15, 10, 10,
                                                       20, 15, 10};
    static const std::vector<Kind> kFleetKinds = {
        Kind::kCellKeyword, Kind::kVisual, Kind::kFleetEncampment};
    static const std::vector<double> kFleetWeights = {55, 25, 20};
    const Kind kind = mix == Mix::kSearch
                          ? kSearchKinds[rng.WeightedIndex(kSearchWeights)]
                          : kFleetKinds[rng.WeightedIndex(kFleetWeights)];
    return Make(kind, rng, recent);
  }

  Request Make(Kind kind, Rng& rng, const std::vector<int64_t>& recent) const {
    Request r;
    r.kind = kind;
    const int label = static_cast<int>(rng.UniformInt(0, kLabels.size() - 1));
    switch (kind) {
      case Kind::kBbox:
        SetBox(&r, Box(rng, 0.002, 0.01));
        break;
      case Kind::kTemporal: {
        auto [begin, end] = Window(rng, 30, 300);
        SetTime(&r, begin, end);
        break;
      }
      case Kind::kTextual:
        SetKeywords(&r, {"street", kLabels[static_cast<size_t>(label)]});
        SetLimit(&r, kLimit);
        break;
      case Kind::kCategorical:
        SetLabel(&r, label);
        SetLimit(&r, kLimit);
        break;
      case Kind::kVisual:
        SetVisual(&r, corpus_->QueryFeature(rng));
        break;
      case Kind::kFig9: {
        // Translational reuse (Fig. 9): encampment annotations inside a
        // region and a time window.
        SetBox(&r, Box(rng, 0.005, 0.02));
        SetLabel(&r, kEncampment);
        auto [begin, end] = Window(rng, seeded_ / 8.0, seeded_ / 2.0);
        SetTime(&r, begin, end);
        break;
      }
      case Kind::kDownload: {
        std::vector<int64_t> ids(
            recent.begin(),
            recent.begin() + std::min(recent.size(), kDownloadIds));
        while (ids.size() < kDownloadIds) {
          ids.push_back(rng.UniformInt(1, seeded_));
        }
        r = Download(std::move(ids));
        break;
      }
      case Kind::kCellKeyword:
        SetBox(&r, CellBox(rng));
        SetKeywords(&r, {kLabels[static_cast<size_t>(label)]});
        break;
      case Kind::kFleetEncampment:
        SetLabel(&r, kEncampment);
        SetVisual(&r, corpus_->QueryFeature(rng));
        break;
      case Kind::kReadBack:
        break;
    }
    return r;
  }

  static Request Download(std::vector<int64_t> ids) {
    Request r;
    r.kind = Kind::kDownload;
    r.endpoint = "download_datasets";
    Json list = Json::MakeArray();
    for (int64_t id : ids) list.Append(id);
    r.body["image_ids"] = std::move(list);
    r.ids = std::move(ids);
    return r;
  }

  /// Finds one upload again by its capture minute plus either a small box
  /// around it or its keywords.
  static Request ReadBack(const Image& image, int64_t id, bool by_keywords) {
    Request r;
    r.kind = Kind::kReadBack;
    if (by_keywords) {
      SetKeywords(&r, image.record.keywords);
    } else {
      const geo::GeoPoint& p = image.record.location;
      SetBox(&r, {p.lat - 1e-4, p.lon - 1e-4, p.lat + 1e-4, p.lon + 1e-4});
    }
    SetTime(&r, image.record.captured_at, image.record.captured_at);
    r.expect_id = id;
    return r;
  }

 private:
  geo::BoundingBox Box(Rng& rng, double min_half, double max_half) const {
    const geo::GeoPoint c = corpus_->QueryPoint(rng);
    const double h = rng.Uniform(min_half, max_half);
    return {c.lat - h, c.lon - h, c.lat + h, c.lon + h};
  }

  /// A box inside one grid cell, far enough from its edges (more than the
  /// largest FOV radius) that scatter-gather prunes every other shard.
  geo::BoundingBox CellBox(Rng& rng) const {
    constexpr double kMarginDeg = 0.003;
    const geo::BoundingBox region = Region();
    const int cell =
        static_cast<int>(rng.UniformInt(0, kGridRows * kGridCols - 1));
    const double dlat = (region.max_lat - region.min_lat) / kGridRows;
    const double dlon = (region.max_lon - region.min_lon) / kGridCols;
    const double lat0 = region.min_lat + (cell / kGridCols) * dlat;
    const double lon0 = region.min_lon + (cell % kGridCols) * dlon;
    const double h = rng.Uniform(0.002, 0.008);
    const double lat =
        rng.Uniform(lat0 + kMarginDeg + h, lat0 + dlat - kMarginDeg - h);
    const double lon =
        rng.Uniform(lon0 + kMarginDeg + h, lon0 + dlon - kMarginDeg - h);
    return {lat - h, lon - h, lat + h, lon + h};
  }

  /// A capture-time window over the seeded span, `min_minutes` to
  /// `max_minutes` long.
  std::pair<Timestamp, Timestamp> Window(Rng& rng, double min_minutes,
                                         double max_minutes) const {
    const int64_t minutes =
        static_cast<int64_t>(rng.Uniform(min_minutes, max_minutes));
    const int64_t first =
        rng.UniformInt(0, std::max<int64_t>(0, seeded_ - minutes));
    return {kEpoch + 60 * first, kEpoch + 60 * (first + minutes)};
  }

  const Corpus* corpus_;
  int64_t seeded_;
};

std::vector<int64_t> ResultIds(const Json& data) {
  std::vector<int64_t> ids;
  if (data.Has("rows")) {
    for (const Json& row : data["rows"].AsArray()) {
      ids.push_back(row["id"].AsInt());
    }
  } else {
    for (const Json& id : data["image_ids"].AsArray()) {
      ids.push_back(id.AsInt());
    }
  }
  return ids;
}

bool EnvelopeOk(const Json& envelope) {
  return envelope["status"].AsString() == "ok" && !envelope.Has("degraded");
}

/// Σ actual rows of the probe and verify operators: the rows the executor
/// touched to produce its hits.
double ProbeVerifyRows(const query::PlanNode& node) {
  double rows = 0;
  if ((node.op == "IndexProbe" || node.op == "MaterializeProbe" ||
       node.op == "Verify") &&
      node.actual_rows > 0) {
    rows += static_cast<double>(node.actual_rows);
  }
  for (const query::PlanNode& child : node.children) {
    rows += ProbeVerifyRows(child);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// The serving deployment: one durable engine or a durable sharded fleet,
// fronted by the API with a default admission controller.

struct Deployment {
  std::unique_ptr<Tvdp> tvdp;
  std::unique_ptr<ShardManager> fleet;
  platform::ModelRegistry registry;
  std::unique_ptr<platform::AdmissionController> admission;
  std::unique_ptr<platform::ApiService> api;
  std::string key;

  /// Drops everything without a checkpoint, as a crash would.
  void Close() {
    api.reset();
    admission.reset();
    tvdp.reset();
    fleet.reset();
  }
  Json Call(const std::string& endpoint, const Json& body) const {
    return api->HandleEnvelope(key, endpoint, body);
  }
  int engine_count() const { return fleet ? fleet->shard_count() : 1; }
  Tvdp* engine(int i) const { return fleet ? fleet->shard(i) : tvdp.get(); }
  int64_t GlobalId(int engine, int64_t local) const {
    return fleet ? local * kShards + engine : local;
  }
  /// The engine that stores an image taken at `p`.
  Tvdp* EngineFor(const geo::GeoPoint& p) const {
    return fleet ? fleet->shard(fleet->ShardForLocation(p)) : tvdp.get();
  }
};

platform::ShardManagerOptions FleetOptions(const std::string& base, Fs* fs) {
  platform::ShardManagerOptions o;
  o.shard_count = kShards;
  o.grid_rows = kGridRows;
  o.grid_cols = kGridCols;
  o.region = Region();
  o.base_path = base;
  o.durable.fs = fs;
  o.replication.replication_factor = 2;
  o.replication.sync = platform::SyncLevel::kSync;
  return o;
}

/// Writes `images` as catalog rows into a fresh durable store at `base`.
Status BootstrapStore(const std::string& base, const std::vector<Image>& images,
                      Fs* fs) {
  TVDP_ASSIGN_OR_RETURN(storage::Catalog catalog, storage::MakeTvdpCatalog());
  TVDP_RETURN_IF_ERROR(SeedRows(images, &catalog));
  storage::DurableCatalogOptions options;
  options.fs = fs;
  TVDP_ASSIGN_OR_RETURN(storage::DurableCatalog store,
                        storage::DurableCatalog::Open(base, options));
  return store.Bootstrap(std::move(catalog));
}

/// Facade ingest is O(n) per commit, so the corpus is written as rows and
/// served through the restart path instead. Fleet rows are routed by a
/// throwaway in-memory fleet with the serving fleet's grid.
Status SeedStores(const Spec& spec, const Corpus& corpus, int images,
                  const std::string& dir, Fs* fs, Truth* truth) {
  std::vector<Image> all;
  all.reserve(static_cast<size_t>(images));
  for (int i = 0; i < images; ++i) all.push_back(corpus.Make(i));
  if (!spec.sharded) {
    for (size_t i = 0; i < all.size(); ++i) {
      truth->Add(static_cast<int64_t>(i) + 1, all[i], /*annotated=*/true);
    }
    return BootstrapStore(dir + "/engine", all, fs);
  }
  TVDP_ASSIGN_OR_RETURN(std::unique_ptr<ShardManager> router,
                        ShardManager::Create(FleetOptions("", nullptr)));
  std::vector<std::vector<Image>> per_shard(kShards);
  for (Image& img : all) {
    const int shard = router->ShardForLocation(img.record.location);
    std::vector<Image>& rows = per_shard[static_cast<size_t>(shard)];
    truth->Add(static_cast<int64_t>(rows.size() + 1) * kShards + shard, img,
               /*annotated=*/true);
    rows.push_back(std::move(img));
  }
  std::filesystem::create_directories(dir + "/fleet");
  for (int s = 0; s < kShards; ++s) {
    TVDP_RETURN_IF_ERROR(
        BootstrapStore(StrFormat("%s/fleet/shard_%d", dir.c_str(), s),
                       per_shard[static_cast<size_t>(s)], fs));
  }
  return Status::OK();
}

/// Opens the serving deployment from disk (Tvdp::Open or
/// ShardManager::Create) and fronts it with the API. Returns the Open /
/// Create time in ms.
Result<double> OpenServing(const Spec& spec, const std::string& dir, Fs* fs,
                           Deployment* d) {
  const double start = NowMs();
  if (spec.sharded) {
    TVDP_ASSIGN_OR_RETURN(
        d->fleet, ShardManager::Create(FleetOptions(dir + "/fleet", fs)));
  } else {
    storage::DurableCatalogOptions options;  // sync_on_commit stays on
    options.fs = fs;
    TVDP_ASSIGN_OR_RETURN(Tvdp t, Tvdp::Open(dir + "/engine", options));
    d->tvdp = std::make_unique<Tvdp>(std::move(t));
  }
  const double open_ms = NowMs() - start;
  d->admission = std::make_unique<platform::AdmissionController>();
  d->api = spec.sharded ? std::make_unique<platform::ApiService>(
                              d->fleet.get(), &d->registry, d->admission.get())
                        : std::make_unique<platform::ApiService>(
                              d->tvdp.get(), &d->registry, d->admission.get());
  d->key = d->api->CreateApiKey("lasan");
  return open_ms;
}

// ---------------------------------------------------------------------------
// One run of one workload.

struct Window {
  double begin = 0;  ///< clients start (warm-up)
  double t0 = 0;     ///< measured window
  double mid = 0;    ///< traced runs: the traced second half starts
  double t1 = 0;
  int slices = 1;    ///< ~1 s slices of the window, for read_qps
  bool Measured(double t) const { return t >= t0 && t < t1; }
  bool Traced(double t) const { return t >= mid && t < t1; }
  size_t Slice(double t) const {
    return std::min(static_cast<size_t>((t - t0) / (t1 - t0) * slices),
                    static_cast<size_t>(slices - 1));
  }
  double slice_s() const { return (t1 - t0) / 1000 / slices; }
};

struct Checked {
  Request request;
  Json data;
};

/// Per-client tallies, merged after the clients join.
struct ClientStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t reads = 0;         ///< started in the window, untraced
  std::vector<int64_t> slice_reads;  ///< `reads` by window slice
  int64_t traced_reads = 0;  ///< started in the traced half
  int64_t ingests = 0;       ///< acked, started in the window, untraced
  int64_t traced_ingests = 0;
  std::vector<double> read_ms;
  std::vector<double> ingest_ms;
  std::vector<double> lateness_ms;
  std::vector<int64_t> acked;
  std::vector<Checked> checks;  ///< uniform reservoir of the sampled reads
  int64_t offered = 0;          ///< sampled reads offered to the reservoir
  std::vector<std::string> violations;

  void Offer(Rng& rng, Checked c) {
    ++offered;
    if (checks.size() < kMaxChecksPerClient) {
      checks.push_back(std::move(c));
    } else if (const int64_t j = rng.UniformInt(0, offered - 1);
               j < static_cast<int64_t>(kMaxChecksPerClient)) {
      checks[static_cast<size_t>(j)] = std::move(c);
    }
  }

  void Merge(ClientStats&& o) {
    attempted += o.attempted;
    failed += o.failed;
    reads += o.reads;
    slice_reads.resize(std::max(slice_reads.size(), o.slice_reads.size()));
    for (size_t i = 0; i < o.slice_reads.size(); ++i) {
      slice_reads[i] += o.slice_reads[i];
    }
    traced_reads += o.traced_reads;
    ingests += o.ingests;
    traced_ingests += o.traced_ingests;
    auto append = [](auto& to, auto& from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    append(read_ms, o.read_ms);
    append(ingest_ms, o.ingest_ms);
    append(lateness_ms, o.lateness_ms);
    append(acked, o.acked);
    append(checks, o.checks);
    append(violations, o.violations);
  }
};

class Run {
 public:
  Run(const Spec& spec, const Options& options, int images)
      : spec_(spec),
        options_(options),
        images_(images),
        corpus_(options.seed),
        gen_(&corpus_, images),
        next_image_(images) {
    if (options.trace) tracer_ = std::make_unique<Tracer>(NowMs());
  }

  Result<Outcome> Execute();

 private:
  Status Setup();
  /// Warm-up plus the measured window; returns every client's tallies.
  ClientStats Load();
  void Reader(ClientStats& cs, int client);
  void OpenLoopWriter(ClientStats& cs, int client);
  void ClosedLoopWriter(ClientStats& cs, int client);

  /// One read through the API (end-to-end time includes serializing the
  /// envelope). Returns the envelope's data on success.
  std::optional<Json> Read(ClientStats& cs, const Request& req, uint64_t rid);
  /// One upload: `add_data`, or in the traced half the facade / fleet calls
  /// add_data makes, timed one by one.
  Result<int64_t> Ingest(const Image& image, bool traced, uint64_t rid);
  void Acked(ClientStats& cs, const Image& image, const Result<int64_t>& id,
             double start, bool traced);
  void Replay(const HybridQuery& q, uint64_t rid, double api_ms);
  double ReplayEngine(Tvdp* engine, const HybridQuery& q, uint64_t rid,
                      const char* parent);
  void SampleCommit(Tvdp* engine);
  void SampleGauges();

  std::vector<int64_t> SpatialScan(const geo::BoundingBox& box) const;
  std::vector<int64_t> OracleSet(const HybridQuery& q) const;
  std::vector<int64_t> ExactTopK(const ml::FeatureVector& feature) const;
  std::string Check(const Checked& c, bool exact);
  void VerifyUploads(const std::vector<int64_t>& ids, ClientStats& cs);
  double VisualRecall(ClientStats& cs);
  void IngestProbe(ClientStats& cs);
  void Retention(ClientStats& cs);
  void IndexBattery();

  uint64_t NextRid(int client) {
    return (static_cast<uint64_t>(client) << 40) | next_rid_.fetch_add(1);
  }

  std::vector<Metric> EndToEnd(const ClientStats& all) const;
  std::vector<Metric> PerLayer(const ClientStats& all) const;

  const Spec& spec_;
  const Options& options_;
  const int images_;
  const Corpus corpus_;
  const RequestGen gen_;
  CountingFs fs_;
  Truth truth_;
  Deployment d_;
  std::unique_ptr<Tracer> tracer_;
  Window window_;
  std::atomic<int64_t> next_image_;
  std::atomic<uint64_t> next_rid_{0};

  std::vector<double> setup_ms_;
  std::vector<double> open_ms_;
  double recall_ = 0;
  double restart_ms_ = 0;
  std::vector<double> delete_ms_;
  double probe_ms_ = 0;  ///< wall time of the post-window ingest probe
  Json admission_stats_;  ///< admission counters right after the window
  int64_t fov_misses_ = 0;  ///< hits lost to the spatial-verify defect (Check)
  // Traced runs: WAL traffic of the traced ingests, and gauge maxima.
  CountingFs::Counts wal_ingest_;
  int64_t wal_ingests_ = 0;
  std::vector<double> fsync_ms_;
  CountingFs::Counts wal_delete_;
  double retired_max_ = 0;
  double pinned_max_ = 0;
  double lag_max_ = 0;
};

Status Run::Setup() {
  std::filesystem::create_directories(options_.data_dir);
  TVDP_RETURN_IF_ERROR(
      SeedStores(spec_, corpus_, images_, options_.data_dir, &fs_, &truth_));
  // setup_s: the restart path plus API-key creation, repeated while cheap
  // (median reported); row generation is the benchmark's own work.
  double total = 0;
  do {
    d_.Close();
    const double start = NowMs();
    TVDP_ASSIGN_OR_RETURN(double open_ms,
                          OpenServing(spec_, options_.data_dir, &fs_, &d_));
    const double ms = NowMs() - start;
    setup_ms_.push_back(ms);
    open_ms_.push_back(open_ms);
    total += ms;
  } while (setup_ms_.size() < kMaxSetups && total < kSetupBudgetMs);
  return Status::OK();
}

std::optional<Json> Run::Read(ClientStats& cs, const Request& req,
                              uint64_t rid) {
  const double start = NowMs();
  const bool traced = tracer_ && window_.Traced(start);
  Json envelope = d_.Call(req.endpoint, req.body);
  const double api_end = NowMs();
  const size_t bytes = envelope.Dump().size();
  const double end = NowMs();
  ++cs.attempted;
  bool ok = EnvelopeOk(envelope);
  // A sharded search missing any shard is a partial result: no shard is
  // faulted here, so it counts as a failure.
  if (ok && d_.fleet && req.endpoint == "search_datasets") {
    ok = envelope["data"]["coverage"]["complete"].AsBool();
  }
  if (!ok) {
    ++cs.failed;
    return std::nullopt;
  }
  if (window_.Measured(start)) {
    if (traced) {
      ++cs.traced_reads;
    } else {
      ++cs.reads;
      cs.read_ms.push_back(end - start);
      cs.slice_reads.resize(static_cast<size_t>(window_.slices));
      ++cs.slice_reads[window_.Slice(start)];
    }
  }
  Json data = std::move(envelope["data"]);
  if (req.kind == Kind::kReadBack) {
    std::vector<int64_t> ids = ResultIds(data);
    if (std::find(ids.begin(), ids.end(), req.expect_id) == ids.end()) {
      cs.violations.push_back(StrFormat(
          "acked upload %lld is missing from its read-back search",
          static_cast<long long>(req.expect_id)));
    }
  }
  if (traced) {
    // The replay runs after the API call but decomposes it, so its spans
    // hang under the API span.
    const std::string api = "platform.api." + req.endpoint;
    tracer_->Span(rid, api, "", start, api_end);
    tracer_->Span(rid, "platform.api.encode", api, api_end, end);
    tracer_->Sample("platform.api.response_bytes", static_cast<double>(bytes));
    if (req.endpoint == "search_datasets") {
      Replay(req.query, rid, api_end - start);
    }
  }
  return data;
}

void Run::Replay(const HybridQuery& q, uint64_t rid, double api_ms) {
  double engine_ms = 0;
  if (d_.fleet) {
    const double start = NowMs();
    Result<ShardManager::ShardedQueryResult> r = d_.fleet->ExecuteQuery(q);
    const double end = NowMs();
    if (!r.ok()) {
      tracer_->Count("replay_errors", 1);
      return;
    }
    tracer_->Span(rid, "query.scatter_gather.execute",
                  "platform.api.search_datasets", start, end);
    engine_ms = end - start;
    double slowest = 0;
    for (const query::ShardReport& rep : r->coverage.reports) {
      if (rep.outcome == query::ShardOutcome::kPruned) {
        tracer_->Count("query.scatter_gather.pruned", 1);
        continue;
      }
      if (rep.attempts == 0) continue;
      tracer_->Count("query.scatter_gather.probed", 1);
      tracer_->Count("query.scatter_gather.attempts", rep.attempts);
      tracer_->Sample("query.scatter_gather.probe", rep.latency_ms);
      slowest = std::max(slowest, rep.latency_ms);
      ReplayEngine(d_.fleet->shard(rep.shard), q, rid,
                   "query.scatter_gather.execute");
    }
    tracer_->Sample("query.scatter_gather.gather_share",
                    engine_ms > 0 ? (engine_ms - slowest) / engine_ms : 0);
  } else {
    // One engine: it is the only probe, and nothing is gathered.
    engine_ms =
        ReplayEngine(d_.tvdp.get(), q, rid, "platform.api.search_datasets");
    tracer_->Count("query.scatter_gather.probed", 1);
    tracer_->Count("query.scatter_gather.attempts", 1);
    tracer_->Sample("query.scatter_gather.probe", engine_ms);
    tracer_->Sample("query.scatter_gather.gather_share", 0);
  }
  tracer_->Count("query.scatter_gather.queries", 1);
  tracer_->Sample("platform.api.overhead", api_ms - engine_ms);
}

double Run::ReplayEngine(Tvdp* engine, const HybridQuery& q, uint64_t rid,
                         const char* parent) {
  const double t0 = NowMs();
  Result<query::QueryPlan> plan = engine->ExplainQuery(q);
  const double t1 = NowMs();
  query::QueryPlan executed;
  auto hits = engine->ExecuteQuery(q, nullptr, query::QueryBudget(), &executed);
  const double t2 = NowMs();
  if (!plan.ok() || !hits.ok()) {
    tracer_->Count("replay_errors", 1);
    return t2 - t1;
  }
  tracer_->Span(rid, "query.planner.explain", parent, t0, t1);
  tracer_->Span(rid, "query.executor.execute", parent, t1, t2);
  tracer_->Sample("query.executor.run", (t2 - t1) - (t1 - t0));
  tracer_->Count("query.executor.plans", 1);
  tracer_->Count("query.executor.seed_candidates",
                 static_cast<double>(executed.seed_candidates));
  tracer_->Count("query.executor.probe_verify_rows",
                 ProbeVerifyRows(executed.root));
  tracer_->Count("query.executor.hits", static_cast<double>(hits->size()));
  return t2 - t1;
}

Result<int64_t> Run::Ingest(const Image& image, bool traced, uint64_t rid) {
  if (!traced) {
    Json envelope = d_.Call("add_data", AddDataRequest(image));
    if (!EnvelopeOk(envelope)) return Status::Internal(envelope.Dump());
    return envelope["data"]["image_id"].AsInt();
  }
  Tvdp* engine = d_.EngineFor(image.record.location);
  const double t0 = NowMs();
  Result<int64_t> id = d_.fleet ? d_.fleet->IngestImage(image.record)
                                : d_.tvdp->IngestImage(image.record);
  const double t1 = NowMs();
  if (!id.ok()) return id;
  SampleCommit(engine);
  const double t2 = NowMs();
  TVDP_RETURN_IF_ERROR(
      d_.fleet ? d_.fleet->StoreFeature(*id, kFeatureKind, image.feature)
               : d_.tvdp->StoreFeature(*id, kFeatureKind, image.feature));
  const double t3 = NowMs();
  SampleCommit(engine);
  tracer_->Span(rid, "platform.ingest_image", "", t0, t1);
  tracer_->Span(rid, "platform.store_feature", "", t2, t3);
  return id;
}

void Run::SampleCommit(Tvdp* engine) {
  const Json mvcc = engine->MvccStats();
  tracer_->Sample("query.snapshot.bytes_copied",
                  mvcc["bytes_copied_last_commit"].AsDouble());
  tracer_->Sample("query.snapshot.bytes_shared",
                  mvcc["bytes_shared_last_commit"].AsDouble());
}

void Run::Acked(ClientStats& cs, const Image& image, const Result<int64_t>& id,
                double start, bool traced) {
  const double done = NowMs();
  ++cs.attempted;
  if (!id.ok()) {
    ++cs.failed;
    return;
  }
  truth_.Add(*id, image, /*annotated=*/false);
  cs.acked.push_back(*id);
  if (!window_.Measured(start)) return;
  if (traced) {
    ++cs.traced_ingests;
  } else {
    ++cs.ingests;
    cs.ingest_ms.push_back(done - start);
  }
}

void Run::Reader(ClientStats& cs, int client) {
  Rng rng(StreamSeed(options_.seed, kClientStream + client));
  std::vector<int64_t> recent;
  while (NowMs() < window_.t1) {
    Request req = gen_.Next(spec_.mix, rng, recent);
    std::optional<Json> data = Read(cs, req, NextRid(client));
    if (!data) continue;
    if (req.endpoint == "search_datasets") recent = ResultIds(*data);
    if (rng.UniformInt(1, kCheckEvery) == 1) {
      cs.Offer(rng, {std::move(req), std::move(*data)});
    }
  }
}

void Run::OpenLoopWriter(ClientStats& cs, int client) {
  // Independent uploads arrive on a fixed schedule whatever the system
  // does; latency counts from when each was due.
  const double interval_ms = 1000.0 / spec_.writer_rate;
  for (int64_t k = 0;; ++k) {
    const double due = window_.begin + static_cast<double>(k) * interval_ms;
    if (due >= window_.t1) break;
    SleepUntil(due);
    const double sent = NowMs();
    const Image image = corpus_.Make(next_image_++);
    const bool traced = tracer_ && window_.Traced(due);
    Acked(cs, image, Ingest(image, traced, NextRid(client)), due, traced);
    if (window_.Measured(due)) cs.lateness_ms.push_back(sent - due);
  }
}

void Run::ClosedLoopWriter(ClientStats& cs, int client) {
  while (NowMs() < window_.t1) {
    const double start = NowMs();
    const Image image = corpus_.Make(next_image_++);
    const bool traced = tracer_ && window_.Traced(start);
    Result<int64_t> id = Ingest(image, traced, NextRid(client));
    Acked(cs, image, id, start, traced);
    if (id.ok()) {
      // The uploader finds its image again, by place and by keywords.
      Read(cs, RequestGen::ReadBack(image, *id, false), NextRid(client));
      Read(cs, RequestGen::ReadBack(image, *id, true), NextRid(client));
    }
  }
}

void Run::SampleGauges() {
  for (int e = 0; e < d_.engine_count(); ++e) {
    const Json mvcc = d_.engine(e)->MvccStats();
    retired_max_ = std::max(retired_max_, mvcc["retired_versions"].AsDouble());
    pinned_max_ = std::max(pinned_max_, mvcc["pinned_snapshots"].AsDouble());
    if (d_.fleet) {
      lag_max_ = std::max(
          lag_max_, static_cast<double>(d_.fleet->replica_lag_records(e)));
    }
  }
}

ClientStats Run::Load() {
  const double warmup_ms = std::min(1000.0, options_.seconds * 1000 / 4);
  window_.begin = NowMs();
  window_.t0 = window_.begin + warmup_ms;
  window_.t1 = window_.t0 + options_.seconds * 1000;
  window_.mid = tracer_ ? (window_.t0 + window_.t1) / 2 : window_.t1;
  window_.slices = std::max(1, static_cast<int>(std::lround(options_.seconds)));

  const int clients = spec_.readers + spec_.writers + (spec_.writer_rate > 0);
  std::vector<ClientStats> stats(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  int c = 0;
  for (int i = 0; i < spec_.readers; ++i, ++c) {
    threads.emplace_back([this, &stats, c] { Reader(stats[c], c); });
  }
  for (int i = 0; i < spec_.writers; ++i, ++c) {
    threads.emplace_back([this, &stats, c] { ClosedLoopWriter(stats[c], c); });
  }
  if (spec_.writer_rate > 0) {
    threads.emplace_back([this, &stats, c] { OpenLoopWriter(stats[c], c); });
  }
  // The main thread only samples gauges (traced runs) and marks the traced
  // half's start in the WAL counters.
  bool mid_marked = false;
  while (NowMs() < window_.t1) {
    if (tracer_) {
      if (!mid_marked && NowMs() >= window_.mid) {
        wal_ingest_ = fs_.counts();
        fs_.TakeSyncMs();
        mid_marked = true;
      }
      SampleGauges();
    }
    SleepUntil(std::min(NowMs() + kGaugeIntervalMs, window_.t1));
  }
  for (std::thread& t : threads) t.join();
  ClientStats all;
  for (ClientStats& s : stats) all.Merge(std::move(s));
  if (tracer_ && all.traced_ingests > 0) {
    wal_ingest_ = fs_.counts() - wal_ingest_;
    wal_ingests_ = all.traced_ingests;
    fsync_ms_ = fs_.TakeSyncMs();
  }
  return all;
}

// ---------------------------------------------------------------------------
// Oracles and checks, run after the window on the quiescent state.

std::vector<int64_t> Run::SpatialScan(const geo::BoundingBox& box) const {
  std::vector<int64_t> ids;
  for (int e = 0; e < d_.engine_count(); ++e) {
    auto hits = d_.engine(e)->query().SpatialRangeScan(box);
    if (!hits.ok()) continue;
    for (const query::QueryHit& h : *hits) {
      ids.push_back(d_.GlobalId(e, h.image_id));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int64_t> Run::OracleSet(const HybridQuery& q) const {
  std::vector<int64_t> spatial;
  if (q.spatial) spatial = SpatialScan(q.spatial->range);
  return truth_.Select([&](int64_t id, const Known& k) {
    const platform::ImageRecord& r = k.image.record;
    if (q.spatial && !std::binary_search(spatial.begin(), spatial.end(), id)) {
      return false;
    }
    if (q.temporal && (r.captured_at < q.temporal->begin ||
                       r.captured_at > q.temporal->end)) {
      return false;
    }
    if (q.textual) {
      for (const std::string& kw : q.textual->keywords) {
        if (std::find(r.keywords.begin(), r.keywords.end(), kw) ==
            r.keywords.end()) {
          return false;
        }
      }
    }
    if (q.categorical &&
        (!k.annotated ||
         q.categorical->label != kLabels[static_cast<size_t>(k.image.label)])) {
      return false;
    }
    return true;
  });
}

std::vector<int64_t> Run::ExactTopK(const ml::FeatureVector& feature) const {
  std::vector<std::pair<double, int64_t>> ranked;
  for (int e = 0; e < d_.engine_count(); ++e) {
    auto hits =
        d_.engine(e)->query().VisualTopKScan(kFeatureKind, feature, kTopK);
    if (!hits.ok()) continue;
    for (const query::QueryHit& h : *hits) {
      ranked.emplace_back(h.score, d_.GlobalId(e, h.image_id));
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int64_t> ids;
  for (size_t i = 0; i < ranked.size() && i < kTopK; ++i) {
    ids.push_back(ranked[i].second);
  }
  return ids;
}

std::string Describe(const Request& req) {
  return req.endpoint + " " + req.body.Dump().substr(0, 400);
}

/// Empty when `c` passes. `exact` (a catalog nothing writes to) demands the
/// oracle's exact answer; otherwise results must be sound: every id
/// satisfies the predicates on the final state.
std::string Run::Check(const Checked& c, bool exact) {
  const Request& req = c.request;
  if (req.endpoint == "download_datasets") {
    const Json::Array& rows = c.data["rows"].AsArray();
    if (rows.size() != req.ids.size()) return Describe(req) + ": row count";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Known* k = truth_.Find(req.ids[i]);
      const platform::ImageRecord* r = k ? &k->image.record : nullptr;
      if (!r || rows[i]["id"].AsInt() != req.ids[i] ||
          rows[i]["lat"].AsDouble() != r->location.lat ||
          rows[i]["lon"].AsDouble() != r->location.lon ||
          rows[i]["captured_at"].AsInt() != r->captured_at ||
          rows[i]["uri"].AsString() != r->uri) {
        return Describe(req) + StrFormat(": wrong row for id %lld",
                                         static_cast<long long>(req.ids[i]));
      }
    }
    return "";
  }
  const std::vector<int64_t> got = ResultIds(c.data);
  const std::vector<int64_t> want = OracleSet(req.query);
  if (std::set<int64_t>(got.begin(), got.end()).size() != got.size()) {
    return Describe(req) + ": duplicate ids";
  }
  for (int64_t id : got) {
    if (!std::binary_search(want.begin(), want.end(), id)) {
      return Describe(req) + StrFormat(": id %lld fails the predicates",
                                       static_cast<long long>(id));
    }
  }
  if (req.query.visual) {
    return got.size() <= kTopK ? "" : Describe(req) + ": more than k hits";
  }
  if (!std::is_sorted(got.begin(), got.end())) {
    return Describe(req) + ": not in id order";
  }
  const size_t limit = static_cast<size_t>(req.query.limit);
  if (limit > 0 && got.size() > limit) return Describe(req) + ": over limit";
  const size_t expected =
      limit > 0 ? std::min(limit, want.size()) : want.size();
  const bool spatial_verified =
      req.query.spatial && (req.query.temporal || req.query.textual ||
                            req.query.categorical);
  if (exact && spatial_verified) {
    // Known engine defect: when the spatial conjunct is verified per
    // candidate instead of seeding the plan, the executor tests only the
    // camera point and drops images whose FOV alone reaches into the box.
    // Every image with its camera in the box must still come back; the
    // FOV-only misses are counted, not failed.
    for (int64_t id : want) {
      const Known* k = truth_.Find(id);
      if (k && req.query.spatial->range.Contains(k->image.record.location) &&
          !std::binary_search(got.begin(), got.end(), id)) {
        return Describe(req) + StrFormat(": missing id %lld",
                                         static_cast<long long>(id));
      }
    }
    fov_misses_ += static_cast<int64_t>(want.size() - got.size());
    return "";
  }
  if (exact && got.size() != expected) {
    std::string missing;
    for (int64_t id : want) {
      if (missing.size() < 80 &&
          !std::binary_search(got.begin(), got.end(), id)) {
        missing += StrFormat(" %lld", static_cast<long long>(id));
      }
    }
    return Describe(req) +
           StrFormat(": %zu hits, the oracle has %zu (missing:%s)", got.size(),
                     expected, missing.c_str());
  }
  return "";
}

/// Every id must come back from download_datasets with the uploaded row.
void Run::VerifyUploads(const std::vector<int64_t>& ids, ClientStats& cs) {
  for (size_t i = 0; i < ids.size(); i += kDownloadIds) {
    Checked c;
    c.request = RequestGen::Download(std::vector<int64_t>(
        ids.begin() + i, ids.begin() + std::min(ids.size(), i + kDownloadIds)));
    Json envelope = d_.Call(c.request.endpoint, c.request.body);
    ++cs.attempted;
    if (!EnvelopeOk(envelope)) {
      ++cs.failed;
      cs.violations.push_back("acked uploads unreadable: " + envelope.Dump());
      continue;
    }
    c.data = std::move(envelope["data"]);
    std::string why = Check(c, /*exact=*/true);
    if (!why.empty()) cs.violations.push_back(why);
  }
}

/// Mean recall@10 of the API's visual top-10 against the exhaustive scan,
/// over a fixed seeded set of query vectors.
double Run::VisualRecall(ClientStats& cs) {
  Rng rng(StreamSeed(options_.seed, kRecallStream));
  double sum = 0;
  int answered = 0;
  for (int i = 0; i < kRecallQueries; ++i) {
    Request req;
    SetVisual(&req, corpus_.QueryFeature(rng));
    Json envelope = d_.Call(req.endpoint, req.body);
    ++cs.attempted;
    if (!EnvelopeOk(envelope)) {
      ++cs.failed;
      continue;
    }
    const std::vector<int64_t> got = ResultIds(envelope["data"]);
    const std::vector<int64_t> want = ExactTopK(req.query.visual->feature);
    size_t found = 0;
    for (int64_t id : want) {
      found += std::find(got.begin(), got.end(), id) != got.end();
    }
    sum += want.empty() ? 1.0 : static_cast<double>(found) / want.size();
    ++answered;
  }
  return answered ? sum / answered : 0;
}

/// `search` takes no writes in its window; its ingest numbers come from
/// sequential uploads after it, with the readers stopped.
void Run::IngestProbe(ClientStats& cs) {
  const CountingFs::Counts before = fs_.counts();
  fs_.TakeSyncMs();
  const double start = NowMs();
  for (int i = 0; i < kIngestProbe; ++i) {
    const Image image = corpus_.Make(next_image_++);
    const double t = NowMs();
    Result<int64_t> id = Ingest(image, tracer_ != nullptr, NextRid(0));
    const double done = NowMs();
    ++cs.attempted;
    if (!id.ok()) {
      ++cs.failed;
      continue;
    }
    truth_.Add(*id, image, /*annotated=*/false);
    cs.acked.push_back(*id);
    cs.ingest_ms.push_back(done - t);
  }
  probe_ms_ = NowMs() - start;
  if (tracer_) {
    wal_ingest_ = fs_.counts() - before;
    wal_ingests_ = static_cast<int64_t>(cs.ingest_ms.size());
    fsync_ms_ = fs_.TakeSyncMs();
  }
}

/// Privacy retention: remove the oldest uploads one by one, then crash
/// (drop the engine without a checkpoint), reopen, and check that exactly
/// the surviving uploads are readable.
void Run::Retention(ClientStats& cs) {
  std::vector<int64_t> acked = cs.acked;
  std::sort(acked.begin(), acked.end());
  const size_t n = std::min<size_t>(kRetentionDeletes, acked.size());
  const std::vector<int64_t> doomed(acked.begin(), acked.begin() + n);
  const std::vector<int64_t> kept(acked.begin() + n, acked.end());
  const CountingFs::Counts before = fs_.counts();
  for (int64_t id : doomed) {
    const double start = NowMs();
    Status s = d_.tvdp->RemoveImages({id});
    const double end = NowMs();
    ++cs.attempted;
    if (!s.ok()) {
      ++cs.failed;
      cs.violations.push_back("RemoveImages: " + s.ToString());
      continue;
    }
    delete_ms_.push_back(end - start);
    if (tracer_) {
      tracer_->Span(NextRid(0), "platform.tvdp.remove_images", "", start,
                    end);
    }
    truth_.Remove(id);
  }
  wal_delete_ = fs_.counts() - before;

  d_.Close();
  const double start = NowMs();
  Result<double> reopened = OpenServing(spec_, options_.data_dir, &fs_, &d_);
  restart_ms_ = NowMs() - start;
  if (!reopened.ok()) {
    cs.violations.push_back("reopen after crash: " +
                            reopened.status().ToString());
    return;
  }
  VerifyUploads(kept, cs);
  for (int64_t id : doomed) {
    const Request req = RequestGen::Download({id});
    Json envelope = d_.Call(req.endpoint, req.body);
    ++cs.attempted;
    if (envelope["error_code"].AsInt() !=
        static_cast<int>(StatusCode::kNotFound)) {
      cs.violations.push_back(StrFormat("deleted image %lld after restart: %s",
                                        static_cast<long long>(id),
                                        envelope.Dump().c_str()));
    }
  }
}

/// Traced runs: the index layer, timed through the single-family
/// QueryEngine calls on predicates from the search mix, on every engine.
void Run::IndexBattery() {
  Rng rng(StreamSeed(options_.seed, kBatteryStream));
  const std::vector<int64_t> none;
  for (int e = 0; e < d_.engine_count(); ++e) {
    const query::QueryEngine& engine = d_.engine(e)->query();
    for (int i = 0; i < kBatteryCalls; ++i) {
      auto timed = [&](const char* name, auto&& call) {
        const double start = NowMs();
        const bool ok = call().ok();
        tracer_->Span(NextRid(0), name, "", start, NowMs());
        if (!ok) tracer_->Count("replay_errors", 1);
      };
      const HybridQuery box = gen_.Make(Kind::kBbox, rng, none).query;
      const HybridQuery time = gen_.Make(Kind::kTemporal, rng, none).query;
      const HybridQuery text = gen_.Make(Kind::kTextual, rng, none).query;
      const HybridQuery label = gen_.Make(Kind::kCategorical, rng, none).query;
      const HybridQuery visual = gen_.Make(Kind::kVisual, rng, none).query;
      timed("index.rtree.range",
            [&] { return engine.SpatialRange(box.spatial->range); });
      timed("index.temporal.range", [&] {
        return engine.Temporal(time.temporal->begin, time.temporal->end);
      });
      timed("index.inverted.lookup",
            [&] { return engine.Textual(*text.textual); });
      timed("query.engine.categorical",
            [&] { return engine.Categorical(*label.categorical); });
      timed("index.lsh.topk", [&] {
        return engine.VisualTopK(kFeatureKind, visual.visual->feature, kTopK);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Results.

std::vector<Metric> Run::EndToEnd(const ClientStats& all) const {
  std::vector<double> setup_s;
  for (double ms : setup_ms_) setup_s.push_back(ms / 1000);
  // Reads per second in each ~1 s slice of the window; the median rides
  // out stalls shorter than half the window.
  std::vector<double> slice_qps;
  for (int64_t n : all.slice_reads) {
    slice_qps.push_back(static_cast<double>(n) / window_.slice_s());
  }
  return {
      {"setup_s", Percentile(setup_s, 50), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"read_qps", Percentile(slice_qps, 50), "1/s"},
      {"read_p50_ms", Percentile(all.read_ms, 50), "ms"},
      {"read_p99_ms", Percentile(all.read_ms, 99), "ms"},
      {"ingest_p50_ms", Percentile(all.ingest_ms, 50), "ms"},
      {"visual_recall", recall_, "ratio"},
  };
}

std::vector<Metric> Run::PerLayer(const ClientStats& all) const {
  const Tracer& t = *tracer_;
  auto p = [&](const char* name, double pct) {
    return Percentile(t.Samples(name), pct);
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
  const Json& admission = admission_stats_;
  const double shed =
      admission["shed_queue_full"].AsDouble() +
      admission["shed_stale"].AsDouble() +
      admission["rate_limited"].AsDouble() + admission["expired"].AsDouble() +
      admission["cancelled"].AsDouble();
  double delete_s = 0;
  for (double ms : delete_ms_) delete_s += ms / 1000;
  std::vector<double> open_s;
  for (double ms : open_ms_) open_s.push_back(ms / 1000);
  const double queries = t.Counter("query.scatter_gather.queries");
  const double probed = t.Counter("query.scatter_gather.probed");
  const double deletes = static_cast<double>(delete_ms_.size());
  return {
      {"platform.api.overhead_ms", p("platform.api.overhead", 50), "ms"},
      {"platform.api.encode_ms", p("platform.api.encode", 50), "ms"},
      {"platform.api.response_bytes",
       Mean(t.Samples("platform.api.response_bytes")), "bytes"},
      {"platform.admission.shed", shed, "count"},
      {"platform.admission.degraded", admission["admitted_degraded"].AsDouble(),
       "count"},
      {"query.planner.explain_ms", p("query.planner.explain", 50), "ms"},
      {"query.executor.run_ms_p50", p("query.executor.run", 50), "ms"},
      {"query.executor.run_ms_p99", p("query.executor.run", 99), "ms"},
      {"query.executor.seed_candidates",
       per(t.Counter("query.executor.seed_candidates"),
           t.Counter("query.executor.plans")),
       "count"},
      {"query.executor.rows_per_hit",
       per(t.Counter("query.executor.probe_verify_rows"),
           t.Counter("query.executor.hits")),
       "ratio"},
      {"index.rtree.range_ms", p("index.rtree.range", 50), "ms"},
      {"index.temporal.range_ms", p("index.temporal.range", 50), "ms"},
      {"index.inverted.lookup_ms", p("index.inverted.lookup", 50), "ms"},
      {"query.engine.categorical_ms", p("query.engine.categorical", 50), "ms"},
      {"index.lsh.topk_ms", p("index.lsh.topk", 50), "ms"},
      {"query.snapshot.bytes_copied_per_commit",
       p("query.snapshot.bytes_copied", 50), "bytes"},
      {"query.snapshot.bytes_shared_per_commit",
       p("query.snapshot.bytes_shared", 50), "bytes"},
      {"query.snapshot.retired_versions_max", retired_max_, "count"},
      {"query.snapshot.pinned_max", pinned_max_, "count"},
      {"platform.ingest_image_ms", p("platform.ingest_image", 50), "ms"},
      {"platform.store_feature_ms", p("platform.store_feature", 50), "ms"},
      {"platform.open_s", Percentile(open_s, 50), "s"},
      {"platform.tvdp.remove_images_per_s", per(deletes, delete_s), "1/s"},
      {"storage.wal.fsyncs_per_ingest", per(wal_ingest_.syncs, wal_ingests_),
       "count"},
      {"storage.wal.appends_per_ingest", per(wal_ingest_.appends, wal_ingests_),
       "count"},
      {"storage.wal.bytes_per_ingest", per(wal_ingest_.bytes, wal_ingests_),
       "bytes"},
      {"storage.wal.fsync_ms", Percentile(fsync_ms_, 50), "ms"},
      {"storage.wal.fsyncs_per_delete", per(wal_delete_.syncs, deletes),
       "count"},
      {"storage.wal.bytes_per_delete", per(wal_delete_.bytes, deletes),
       "bytes"},
      {"query.scatter_gather.shards_probed", per(probed, queries), "count"},
      {"query.scatter_gather.shards_pruned",
       per(t.Counter("query.scatter_gather.pruned"), queries), "count"},
      {"query.scatter_gather.gather_share",
       p("query.scatter_gather.gather_share", 50), "ratio"},
      {"query.scatter_gather.probe_ms_p50", p("query.scatter_gather.probe", 50),
       "ms"},
      {"query.scatter_gather.probe_ms_p99", p("query.scatter_gather.probe", 99),
       "ms"},
      {"query.scatter_gather.attempts_per_probe",
       per(t.Counter("query.scatter_gather.attempts"), probed), "count"},
      {"platform.replication.lag_records_max", lag_max_, "count"},
      {"bench.trace.qps_ratio",
       per(static_cast<double>(all.traced_reads),
           static_cast<double>(all.reads)),
       "ratio"},
  };
}

Result<Outcome> Run::Execute() {
  TVDP_RETURN_IF_ERROR(Setup());
  ClientStats all = Load();
  admission_stats_ = d_.api->ServerStatsJson();

  Outcome out;
  const bool exact = spec_.writers == 0 && spec_.writer_rate == 0;
  for (const Checked& c : all.checks) {
    std::string why = Check(c, exact);
    if (!why.empty()) all.violations.push_back(why);
  }
  const size_t checked = all.checks.size();
  all.checks.clear();
  recall_ = VisualRecall(all);
  if (recall_ < kMinRecall) {
    all.violations.push_back(StrFormat("visual recall@10 %.3f", recall_));
  }
  if (spec_.writers == 0 && spec_.writer_rate == 0) IngestProbe(all);
  VerifyUploads(all.acked, all);
  if (spec_.writers > 0) Retention(all);
  if (d_.fleet) {
    for (int s = 0; s < d_.fleet->shard_count(); ++s) {
      if (d_.fleet->replica_lag_records(s) != 0) {
        all.violations.push_back(
            StrFormat("shard %d ends with replication lag", s));
      }
    }
  }
  if (tracer_) {
    IndexBattery();
    out.metrics = PerLayer(all);
    out.trace = tracer_->ToJson();
  } else {
    out.metrics = EndToEnd(all);
  }

  const double window_s = options_.seconds;
  out.details = {
      {"images", static_cast<double>(images_), "count"},
      {"setups", static_cast<double>(setup_ms_.size()), "count"},
      {"read_samples", static_cast<double>(all.read_ms.size()), "count"},
      {"ingest_samples", static_cast<double>(all.ingest_ms.size()), "count"},
      {"ingest_qps",
       probe_ms_ > 0 ? all.ingest_ms.size() / (probe_ms_ / 1000)
                     : all.ingests / window_s,
       "1/s"},
      {"writer_lateness_p50_ms", Percentile(all.lateness_ms, 50), "ms"},
      {"writer_lateness_max_ms", Percentile(all.lateness_ms, 100), "ms"},
      {"checked_reads", static_cast<double>(checked), "count"},
      {"acked_uploads", static_cast<double>(all.acked.size()), "count"},
      {"known_defect_fov_misses", static_cast<double>(fov_misses_), "count"},
  };
  if (!delete_ms_.empty()) {
    out.details.push_back({"delete_p50_ms", Percentile(delete_ms_, 50), "ms"});
    out.details.push_back({"restart_s", restart_ms_ / 1000, "s"});
  }
  if (tracer_) {
    out.details.push_back(
        {"replay_errors", tracer_->Counter("replay_errors"), "count"});
  }
  out.attempted = all.attempted;
  out.failed = all.failed;
  out.violations = std::move(all.violations);
  d_.Close();
  return out;
}

}  // namespace

int DefaultImages(const std::string& workload) {
  const Spec* spec = FindSpec(workload);
  return spec ? spec->images : 0;
}

Result<Outcome> RunWorkload(const Options& options) {
  const Spec* spec = FindSpec(options.workload);
  if (!spec) {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  const int images = options.images > 0 ? options.images : spec->images;
  Result<Outcome> out = Status::Internal("not run");
  {
    Run run(*spec, options, images);
    out = run.Execute();
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.data_dir, ignored);
  return out;
}

Status CheckSeedingEquivalence(uint64_t seed, int images,
                               const std::string& data_dir) {
  const Corpus corpus(seed);
  std::vector<Image> all;
  for (int i = 0; i < images; ++i) all.push_back(corpus.Make(i));
  std::filesystem::create_directories(data_dir);
  Status status = [&]() -> Status {
    TVDP_RETURN_IF_ERROR(BootstrapStore(data_dir + "/seeded", all, nullptr));
    TVDP_ASSIGN_OR_RETURN(Tvdp seeded, Tvdp::Open(data_dir + "/seeded"));
    TVDP_ASSIGN_OR_RETURN(Tvdp built, Tvdp::Create());
    TVDP_RETURN_IF_ERROR(IngestThroughFacade(all, &built));
    platform::ModelRegistry registry;
    platform::ApiService seeded_api(&seeded, &registry);
    platform::ApiService built_api(&built, &registry);
    const std::string seeded_key = seeded_api.CreateApiKey("lasan");
    const std::string built_key = built_api.CreateApiKey("lasan");
    const RequestGen gen(&corpus, images);
    Rng rng(StreamSeed(seed, kEquivalenceStream));
    std::vector<int64_t> recent;
    // Both services must give the same, successful envelope.
    auto same = [&](const Request& req) -> Result<Json> {
      const std::string a =
          seeded_api.HandleEnvelope(seeded_key, req.endpoint, req.body).Dump();
      const std::string b =
          built_api.HandleEnvelope(built_key, req.endpoint, req.body).Dump();
      if (a != b) {
        return Status::Internal("envelopes differ for " + Describe(req) +
                                "\n  seeded: " + a.substr(0, 400) +
                                "\n  built:  " + b.substr(0, 400));
      }
      TVDP_ASSIGN_OR_RETURN(Json envelope, Json::Parse(a));
      if (!EnvelopeOk(envelope)) {
        return Status::Internal("request failed: " + Describe(req) + ": " + a);
      }
      return envelope;
    };
    for (int kind = 0; kind < static_cast<int>(Kind::kReadBack); ++kind) {
      for (int i = 0; i < 25; ++i) {
        const Request req = gen.Make(static_cast<Kind>(kind), rng, recent);
        TVDP_ASSIGN_OR_RETURN(Json envelope, same(req));
        if (req.endpoint == "search_datasets") {
          recent = ResultIds(envelope["data"]);
        }
      }
    }
    for (int i = 0; i < images; i += std::max(1, images / 25)) {
      for (bool by_keywords : {false, true}) {
        const Request req = RequestGen::ReadBack(all[static_cast<size_t>(i)],
                                                 i + 1, by_keywords);
        TVDP_RETURN_IF_ERROR(same(req).status());
      }
    }
    return Status::OK();
  }();
  std::error_code ignored;
  std::filesystem::remove_all(data_dir, ignored);
  return status;
}

}  // namespace tvdp::e2e
