// Overload-resilience suite: RequestContext semantics, cooperative
// cancellation in ParallelFor (instrumented work counter), the admission
// controller (rate limiting, LIFO shedding, staleness, degradation), and
// the API-level envelope contract under deadlines and shedding. Runs
// plain, under ASan and under TSan (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/context.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "platform/admission.h"
#include "platform/api.h"
#include "platform/model_registry.h"
#include "platform/tvdp.h"
#include "query/engine.h"
#include "query/query.h"

namespace tvdp {
namespace {

using platform::AdmissionController;
using platform::AdmissionOptions;
using platform::AdmissionTicket;
using platform::ApiService;
using platform::ImageRecord;
using platform::ModelRegistry;
using platform::OverloadState;
using platform::Priority;
using platform::Tvdp;

// ---------- RequestContext ----------

TEST(OverloadContextTest, BackgroundNeverFails) {
  RequestContext ctx = RequestContext::Background();
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_TRUE(std::isinf(ctx.remaining_ms()));
}

TEST(OverloadContextTest, ZeroOrNegativeDeadlineIsExpired) {
  EXPECT_EQ(RequestContext::WithDeadlineMs(0).Check().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(RequestContext::WithDeadlineMs(-5).Check().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(RequestContext::WithDeadlineMs(60000).Check().ok());
}

TEST(OverloadContextTest, CancellationSharedAcrossCopies) {
  CancelToken token;
  RequestContext ctx = RequestContext::WithCancel(token);
  RequestContext copy = ctx;
  EXPECT_TRUE(copy.Check().ok());
  token.Cancel();
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(copy.Check().code(), StatusCode::kCancelled);
}

TEST(OverloadContextTest, CancellationWinsOverExpiredDeadline) {
  CancelToken token;
  token.Cancel();
  RequestContext ctx = RequestContext::WithDeadlineMs(0).WithCancelToken(token);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(OverloadContextTest, WithDeadlineInTightensButNeverLoosens) {
  RequestContext loose = RequestContext::WithDeadlineMs(60000);
  EXPECT_EQ(loose.WithDeadlineIn(0).Check().code(),
            StatusCode::kDeadlineExceeded);
  RequestContext tight = RequestContext::WithDeadlineMs(0);
  EXPECT_EQ(tight.WithDeadlineIn(60000).Check().code(),
            StatusCode::kDeadlineExceeded);
  // Attaching a token keeps the deadline, and vice versa.
  CancelToken token;
  RequestContext both = loose.WithCancelToken(token).WithDeadlineIn(30000);
  EXPECT_TRUE(both.has_deadline());
  token.Cancel();
  EXPECT_EQ(both.Check().code(), StatusCode::kCancelled);
}

// ---------- cooperative ParallelFor ----------

TEST(OverloadParallelForTest, AlreadyFailedContextRunsNothing) {
  ThreadPool pool(2);
  std::atomic<size_t> work{0};
  Status s = pool.ParallelFor(RequestContext::WithDeadlineMs(0), 1000, 1,
                              [&](size_t begin, size_t end) {
                                work.fetch_add(end - begin);
                                return Status::OK();
                              });
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(work.load(), 0u);
}

TEST(OverloadParallelForTest, ContextVariantCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> seen(2000);
  Status s = pool.ParallelFor(RequestContext::Background(), seen.size(), 16,
                              [&](size_t begin, size_t end) {
                                for (size_t i = begin; i < end; ++i) {
                                  seen[i].fetch_add(1);
                                }
                                return Status::OK();
                              });
  ASSERT_TRUE(s.ok()) << s;
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
}

TEST(OverloadParallelForTest, CancellationStopsWithinOneChunkPerThread) {
  // Geometry: 3 workers + the caller = 4 participants; with n = 4000 and
  // min_per_chunk = 1 the dynamic-cursor chunk size is
  // max(1, 4000 / (4 * 4)) = 250. After Cancel() becomes visible no new
  // chunk starts, so each participant finishes at most the chunk it is in
  // plus one fetched-but-unchecked chunk:
  //   bound = threshold + (participants + 1) * chunk = 50 + 5*250 = 1300.
  constexpr size_t kN = 4000;
  constexpr size_t kThreshold = 50;
  constexpr size_t kBound = 1300;
  ThreadPool pool(3);
  CancelToken token;
  RequestContext ctx = RequestContext::WithCancel(token);
  std::atomic<size_t> work{0};
  Status s = pool.ParallelFor(ctx, kN, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (work.fetch_add(1) == kThreshold) token.Cancel();
    }
    return Status::OK();
  });
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_GT(work.load(), kThreshold);  // it did run until the cancel
  EXPECT_LE(work.load(), kBound) << "cancelled ParallelFor kept executing";
}

TEST(OverloadParallelForTest, DeadlineExpiryStopsMidFlight) {
  ThreadPool pool(2);
  RequestContext ctx = RequestContext::WithDeadlineMs(5);
  std::atomic<size_t> work{0};
  // Each element sleeps ~1ms, so the 5ms deadline expires long before the
  // 10k-element range completes.
  Status s = pool.ParallelFor(ctx, 10000, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      work.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  });
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(work.load(), 10000u);
}

// ---------- retry classification (satellite: hint-gated retries) ----------

TEST(OverloadRetryTest, ShedResponsesRetryableOnlyWithHint) {
  Status bare = Status::ResourceExhausted("queue full");
  EXPECT_FALSE(IsRetryableStatus(bare));
  EXPECT_FALSE(RetryAfterHintMs(bare).has_value());

  Status hinted = WithRetryAfterHint(bare, 120);
  EXPECT_TRUE(IsRetryableStatus(hinted));
  auto hint = RetryAfterHintMs(hinted);
  ASSERT_TRUE(hint.has_value());
  EXPECT_DOUBLE_EQ(*hint, 120);

  // The code-only overload stays permissive (edge retry policies budget
  // their own backoff); only the Status overload is hint-gated.
  EXPECT_TRUE(IsRetryableStatus(StatusCode::kResourceExhausted));
}

TEST(OverloadRetryTest, CancelledIsNeverRetryable) {
  EXPECT_FALSE(IsRetryableStatus(StatusCode::kCancelled));
  EXPECT_FALSE(IsRetryableStatus(Status::Cancelled("caller went away")));
  EXPECT_TRUE(IsRetryableStatus(Status::DeadlineExceeded("slow")));
  EXPECT_TRUE(IsRetryableStatus(Status::Unavailable("down")));
}

TEST(OverloadRetryTest, HintSurvivesNegativeAndMalformedInput) {
  EXPECT_DOUBLE_EQ(*RetryAfterHintMs(WithRetryAfterHint(
                       Status::ResourceExhausted("x"), -5)),
                   0);
  EXPECT_FALSE(
      RetryAfterHintMs(Status::ResourceExhausted("[retry_after_ms=oops"))
          .has_value());
}

// ---------- admission controller ----------

TEST(OverloadAdmissionTest, AdmitsUnderCapacityAndCounts) {
  AdmissionController ctrl(AdmissionOptions{});
  auto t = ctrl.Admit("key", Priority::kInteractive);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_FALSE(t->degraded());
  auto stats = ctrl.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.in_flight, 1);
  t->Release();
  EXPECT_EQ(ctrl.stats().completed, 1u);
  EXPECT_EQ(ctrl.stats().in_flight, 0);
}

TEST(OverloadAdmissionTest, RateLimiterRejectsWithRetryAfterHint) {
  double fake_now = 0;
  AdmissionOptions opt;
  opt.rate_per_sec = 100;  // one token per 10ms
  opt.burst = 2;
  opt.now_ms = [&fake_now] { return fake_now; };
  AdmissionController ctrl(opt);

  ASSERT_TRUE(ctrl.Admit("k", Priority::kInteractive).ok());
  ASSERT_TRUE(ctrl.Admit("k", Priority::kInteractive).ok());
  auto rejected = ctrl.Admit("k", Priority::kInteractive);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  auto hint = RetryAfterHintMs(rejected.status());
  ASSERT_TRUE(hint.has_value());
  EXPECT_NEAR(*hint, 10, 1);
  EXPECT_TRUE(IsRetryableStatus(rejected.status()));
  EXPECT_EQ(ctrl.stats().rate_limited, 1u);

  // Buckets are per key: a different key is untouched.
  EXPECT_TRUE(ctrl.Admit("other", Priority::kInteractive).ok());

  fake_now += 10;  // one token refilled
  EXPECT_TRUE(ctrl.Admit("k", Priority::kInteractive).ok());
}

TEST(OverloadAdmissionTest, StaleWaiterIsShedWithHint) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue_interactive = 4;
  opt.max_queue_wait_ms = 40;
  AdmissionController ctrl(opt);
  auto held = ctrl.Admit("a", Priority::kInteractive);
  ASSERT_TRUE(held.ok());
  auto shed = ctrl.Admit("b", Priority::kInteractive);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(RetryAfterHintMs(shed.status()).has_value());
  EXPECT_EQ(ctrl.stats().shed_stale, 1u);
}

TEST(OverloadAdmissionTest, FullQueueShedsOldestWaiterLifo) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue_interactive = 1;
  opt.max_queue_wait_ms = 5000;
  AdmissionController ctrl(opt);
  auto held = ctrl.Admit("hold", Priority::kInteractive);
  ASSERT_TRUE(held.ok());

  auto first = std::async(std::launch::async, [&] {
    return ctrl.Admit("first", Priority::kInteractive);
  });
  while (ctrl.stats().queue_depth_interactive < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The queue (capacity 1) is full: this arrival displaces "first".
  auto second = std::async(std::launch::async, [&] {
    return ctrl.Admit("second", Priority::kInteractive);
  });
  auto displaced = first.get();
  ASSERT_FALSE(displaced.ok());
  EXPECT_EQ(displaced.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctrl.stats().shed_queue_full, 1u);

  held->Release();
  auto granted = second.get();
  ASSERT_TRUE(granted.ok()) << granted.status();
}

TEST(OverloadAdmissionTest, DeadlineAndCancellationWhileQueued) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue_wait_ms = 10000;
  AdmissionController ctrl(opt);
  auto held = ctrl.Admit("hold", Priority::kInteractive);
  ASSERT_TRUE(held.ok());

  auto expired =
      ctrl.Admit("d", Priority::kInteractive, RequestContext::WithDeadlineMs(30));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctrl.stats().expired, 1u);

  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  auto cancelled =
      ctrl.Admit("c", Priority::kInteractive, RequestContext::WithCancel(token));
  canceller.join();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(IsRetryableStatus(cancelled.status()));
  EXPECT_EQ(ctrl.stats().cancelled, 1u);
}

TEST(OverloadAdmissionTest, WaiterGrantedUnderPressureIsDegraded) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue_interactive = 8;
  opt.max_queue_batch = 8;
  opt.degrade_occupancy = 0.05;  // one waiter is enough to degrade
  opt.max_queue_wait_ms = 5000;
  AdmissionController ctrl(opt);
  auto held = ctrl.Admit("hold", Priority::kInteractive);
  ASSERT_TRUE(held.ok());

  auto older = std::async(std::launch::async, [&] {
    return ctrl.Admit("older", Priority::kInteractive);
  });
  while (ctrl.stats().queue_depth_interactive < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto newer = std::async(std::launch::async, [&] {
    return ctrl.Admit("newer", Priority::kInteractive);
  });
  while (ctrl.stats().queue_depth_interactive < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ctrl.state(), OverloadState::kDegraded);

  // Releasing the slot grants the NEWEST waiter. Both waiters were granted
  // out of a backlog — having had to queue is the overload signal — so
  // both run degraded, even the final one with nobody left behind it.
  held->Release();
  auto newer_ticket = newer.get();
  ASSERT_TRUE(newer_ticket.ok()) << newer_ticket.status();
  EXPECT_TRUE(newer_ticket->degraded());
  newer_ticket->Release();
  auto older_ticket = older.get();
  ASSERT_TRUE(older_ticket.ok()) << older_ticket.status();
  EXPECT_TRUE(older_ticket->degraded());
  older_ticket->Release();
  EXPECT_EQ(ctrl.stats().admitted_degraded, 2u);

  // With the backlog drained, an immediate grant is full fidelity again.
  auto calm = ctrl.Admit("calm", Priority::kInteractive);
  ASSERT_TRUE(calm.ok());
  EXPECT_FALSE(calm->degraded());
}

TEST(OverloadAdmissionTest, DegradedHoldKeepsCheapPlansAfterBacklogDrains) {
  double fake_now = 0;
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue_interactive = 8;
  opt.max_queue_batch = 8;
  opt.degraded_hold_ms = 100;
  opt.max_queue_wait_ms = 5000;
  opt.now_ms = [&fake_now] { return fake_now; };
  AdmissionController ctrl(opt);

  auto held = ctrl.Admit("hold", Priority::kInteractive);
  ASSERT_TRUE(held.ok());
  // A waiter queues (recording the backlog on the fake clock) and then
  // gives up on its own deadline, leaving the queues empty again.
  auto gone = ctrl.Admit("impatient", Priority::kInteractive,
                         RequestContext::WithDeadlineMs(5));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(ctrl.stats().queue_depth_interactive, 0u);
  held->Release();

  // Inside the hold window the controller still reports kDegraded and an
  // immediate grant runs a cheap plan, even though nothing is queued.
  fake_now = 50;
  EXPECT_EQ(ctrl.state(), OverloadState::kDegraded);
  auto during_hold = ctrl.Admit("during", Priority::kInteractive);
  ASSERT_TRUE(during_hold.ok());
  EXPECT_TRUE(during_hold->degraded());
  during_hold->Release();

  // Past the hold window, full fidelity returns.
  fake_now = 201;
  EXPECT_EQ(ctrl.state(), OverloadState::kNormal);
  auto after_hold = ctrl.Admit("after", Priority::kInteractive);
  ASSERT_TRUE(after_hold.ok());
  EXPECT_FALSE(after_hold->degraded());
}

TEST(OverloadAdmissionTest, StatsJsonShape) {
  AdmissionController ctrl(AdmissionOptions{});
  { auto t = ctrl.Admit("k", Priority::kInteractive); }
  ctrl.RecordLatency("search_datasets", 12.5);
  ctrl.RecordLatency("search_datasets", 2.5);
  Json j = ctrl.StatsJson();
  EXPECT_EQ(j["admitted"].AsInt(), 1);
  EXPECT_EQ(j["completed"].AsInt(), 1);
  EXPECT_EQ(j["state"].AsString(), "normal");
  ASSERT_TRUE(j["endpoints"].Has("search_datasets"));
  EXPECT_EQ(j["endpoints"]["search_datasets"]["count"].AsInt(), 2);
  EXPECT_GE(j["endpoints"]["search_datasets"]["p99_ms"].AsDouble(),
            j["endpoints"]["search_datasets"]["p50_ms"].AsDouble());
}

// ---------- engine deadline/budget semantics ----------

class OverloadEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = Tvdp::Create();
    ASSERT_TRUE(t.ok());
    tvdp_ = std::make_unique<Tvdp>(std::move(*t));
    for (int i = 0; i < 24; ++i) {
      ImageRecord rec;
      rec.uri = "img" + std::to_string(i);
      rec.location = geo::GeoPoint{34.00 + (i / 8) * 0.01,
                                   -118.30 + (i % 8) * 0.0125};
      rec.captured_at = 1546300800 + i * 3600;
      rec.keywords = {"street", i % 2 == 0 ? "tent" : "clean"};
      auto id = tvdp_->IngestImage(rec);
      ASSERT_TRUE(id.ok()) << id.status();
      ml::FeatureVector feat(4, 0.1);
      feat[static_cast<size_t>(i % 4)] = 1.0;
      ASSERT_TRUE(tvdp_->StoreFeature(*id, "cnn", feat).ok());
    }
  }

  query::HybridQuery VisualQuery(int k) const {
    query::HybridQuery q;
    query::VisualPredicate vp;
    vp.kind = query::VisualPredicate::Kind::kTopK;
    vp.feature_kind = "cnn";
    vp.feature = ml::FeatureVector{1.0, 0.1, 0.1, 0.1};
    vp.k = k;
    q.visual = vp;
    return q;
  }

  std::unique_ptr<Tvdp> tvdp_;
};

TEST_F(OverloadEngineTest, ExpiredDeadlineRejectsBeforeTouchingIndexes) {
  query::QueryEngine& engine = tvdp_->query();
  // Plant a sentinel plan, then fail a different query on its deadline:
  // the plan must be untouched, proving the seed index never ran.
  query::HybridQuery textual;
  query::TextualPredicate tp;
  tp.keywords = {"tent"};
  textual.textual = tp;
  query::QueryPlan plan;
  ASSERT_TRUE(
      engine.Execute(textual, nullptr, query::QueryBudget(), &plan).ok());
  const std::string sentinel = plan.LegacySummary();
  ASSERT_NE(sentinel.find("seed=textual"), std::string::npos);

  RequestContext expired = RequestContext::WithDeadlineMs(0);
  auto r = engine.Execute(VisualQuery(5), &expired, query::QueryBudget(),
                          &plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(plan.LegacySummary(), sentinel);
  EXPECT_EQ(plan.seed_family, "textual");

  // Single-modality paths reject up front too.
  EXPECT_EQ(engine
                .VisualTopK("cnn", ml::FeatureVector{1, 0, 0, 0}, 3, &expired)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.SpatialKnn(geo::GeoPoint{34.0, -118.3}, 3, &expired)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(OverloadEngineTest, CancelledQueryReportsCancelled) {
  CancelToken token;
  token.Cancel();
  RequestContext ctx = RequestContext::WithCancel(token);
  auto r = tvdp_->ExecuteQuery(VisualQuery(5), &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(OverloadEngineTest, DegradedBudgetCapsPlanAndStillAnswers) {
  query::QueryBudget budget;
  budget.lsh_probes = 0;
  budget.max_candidates = 4;
  query::QueryPlan plan;
  auto r = tvdp_->ExecuteQuery(VisualQuery(3), nullptr, budget, &plan);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_LE(r->size(), 4u);
  EXPECT_NE(plan.LegacySummary().find("degraded"), std::string::npos)
      << plan.LegacySummary();

  // Unbudgeted runs stay full fidelity.
  auto full =
      tvdp_->ExecuteQuery(VisualQuery(3), nullptr, query::QueryBudget(), &plan);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(plan.LegacySummary().find("degraded"), std::string::npos);
}

// ---------- API integration ----------

class OverloadApiTest : public ::testing::Test {
 protected:
  void Init(AdmissionOptions opt, bool seed = true) {
    auto t = Tvdp::Create();
    ASSERT_TRUE(t.ok());
    tvdp_ = std::make_unique<Tvdp>(std::move(*t));
    registry_ = std::make_unique<ModelRegistry>();
    admission_ = std::make_unique<AdmissionController>(opt);
    api_ = std::make_unique<ApiService>(tvdp_.get(), registry_.get(),
                                        admission_.get());
    key_ = api_->CreateApiKey("lasan");
    if (!seed) return;
    for (int i = 0; i < 8; ++i) {
      Json req = Json::MakeObject();
      req["lat"] = 34.05 + i * 0.001;
      req["lon"] = -118.25;
      req["captured_at"] = 1546300800;
      auto resp = api_->HandleRequest(key_, "add_data", req);
      ASSERT_TRUE(resp.ok()) << resp.status();
    }
  }

  Json SearchRequest() const {
    Json search = Json::MakeObject();
    Json bbox = Json::MakeArray();
    bbox.Append(34.0);
    bbox.Append(-118.3);
    bbox.Append(34.1);
    bbox.Append(-118.2);
    search["bbox"] = std::move(bbox);
    return search;
  }

  std::unique_ptr<Tvdp> tvdp_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<ApiService> api_;
  std::string key_;
};

TEST_F(OverloadApiTest, ExpiredDeadlineFieldYieldsRetryableEnvelope) {
  Init(AdmissionOptions{});
  Json req = SearchRequest();
  req["deadline_ms"] = 0;
  Json env = api_->HandleEnvelope(key_, "search_datasets", req);
  EXPECT_EQ(env["status"].AsString(), "error");
  EXPECT_EQ(env["code"].AsString(), "DeadlineExceeded");
  EXPECT_EQ(env["error_code"].AsInt(),
            static_cast<int>(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(env["retryable"].AsBool());
}

TEST_F(OverloadApiTest, ShedRequestCarriesRetryAfterHint) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue_interactive = 2;
  opt.max_queue_wait_ms = 40;
  Init(opt);
  auto held = admission_->Admit("occupier", Priority::kInteractive);
  ASSERT_TRUE(held.ok());
  Json env = api_->HandleEnvelope(key_, "search_datasets", SearchRequest());
  EXPECT_EQ(env["status"].AsString(), "error");
  EXPECT_EQ(env["code"].AsString(), "ResourceExhausted");
  EXPECT_EQ(env["error_code"].AsInt(),
            static_cast<int>(StatusCode::kResourceExhausted));
  EXPECT_TRUE(env["retryable"].AsBool());
  EXPECT_TRUE(env.Has("retry_after_ms"));
  EXPECT_GT(env["retry_after_ms"].AsDouble(), 0);

  held->Release();
  Json ok_env = api_->HandleEnvelope(key_, "search_datasets", SearchRequest());
  EXPECT_EQ(ok_env["status"].AsString(), "ok") << ok_env.Dump();
}

TEST_F(OverloadApiTest, RateLimitedKeyDoesNotStarveOthers) {
  double fake_now = 0;
  AdmissionOptions opt;
  opt.rate_per_sec = 100;
  opt.burst = 1;
  opt.now_ms = [&fake_now] { return fake_now; };
  // No seeding: every admitted request spends a token, and the frozen
  // clock never refills the bucket. Searching an empty corpus is fine.
  Init(opt, /*seed=*/false);
  std::string other = api_->CreateApiKey("usc_research");

  ASSERT_EQ(api_->HandleEnvelope(key_, "search_datasets", SearchRequest())
                ["status"]
                    .AsString(),
            "ok");
  Json limited = api_->HandleEnvelope(key_, "search_datasets", SearchRequest());
  EXPECT_EQ(limited["code"].AsString(), "ResourceExhausted");
  EXPECT_TRUE(limited.Has("retry_after_ms"));
  // A different key still gets through.
  EXPECT_EQ(api_->HandleEnvelope(other, "search_datasets", SearchRequest())
                ["status"]
                    .AsString(),
            "ok");
}

TEST_F(OverloadApiTest, DegradedGrantMarksEnvelopeAndPlan) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue_interactive = 8;
  opt.max_queue_batch = 8;  // degrade_at = max(1, 0.05 * 16) = 1 waiter
  opt.degrade_occupancy = 0.05;
  opt.max_queue_wait_ms = 5000;
  Init(opt);
  auto held = admission_->Admit("occupier", Priority::kInteractive);
  ASSERT_TRUE(held.ok());

  auto older = std::async(std::launch::async, [&] {
    return api_->HandleEnvelope(key_, "search_datasets", SearchRequest());
  });
  while (admission_->stats().queue_depth_interactive < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto newer = std::async(std::launch::async, [&] {
    return api_->HandleEnvelope(key_, "search_datasets", SearchRequest());
  });
  while (admission_->stats().queue_depth_interactive < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  held->Release();
  Json newer_env = newer.get();
  Json older_env = older.get();
  ASSERT_EQ(newer_env["status"].AsString(), "ok") << newer_env.Dump();
  ASSERT_EQ(older_env["status"].AsString(), "ok") << older_env.Dump();
  // Both requests had to queue behind the held slot, so both answers are
  // degraded — marked in the envelope and inside the data payload.
  EXPECT_TRUE(newer_env["degraded"].AsBool()) << newer_env.Dump();
  EXPECT_TRUE(newer_env["data"]["degraded"].AsBool());
  EXPECT_TRUE(older_env["degraded"].AsBool()) << older_env.Dump();

  // Once the backlog is gone, responses go back to full fidelity.
  Json calm_env = api_->HandleEnvelope(key_, "search_datasets",
                                       SearchRequest());
  ASSERT_EQ(calm_env["status"].AsString(), "ok");
  EXPECT_FALSE(calm_env.Has("degraded"));
}

TEST_F(OverloadApiTest, ServerStatsExported) {
  Init(AdmissionOptions{});
  ASSERT_EQ(api_->HandleEnvelope(key_, "search_datasets", SearchRequest())
                ["status"]
                    .AsString(),
            "ok");
  Json stats = api_->ServerStatsJson();
  EXPECT_GE(stats["admitted"].AsInt(), 1);
  EXPECT_TRUE(stats["endpoints"].Has("search_datasets"));
  EXPECT_TRUE(stats.Has("state"));
}

TEST_F(OverloadApiTest, BatchPriorityUsesBatchQueue) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue_batch = 0;  // batch work is rejected outright when busy
  opt.max_queue_wait_ms = 1000;
  Init(opt);
  auto held = admission_->Admit("occupier", Priority::kInteractive);
  ASSERT_TRUE(held.ok());
  Json req = SearchRequest();
  req["priority"] = "batch";
  Json env = api_->HandleEnvelope(key_, "search_datasets", req);
  EXPECT_EQ(env["code"].AsString(), "ResourceExhausted") << env.Dump();
  EXPECT_EQ(admission_->stats().shed_queue_full, 1u);
}

}  // namespace
}  // namespace tvdp
