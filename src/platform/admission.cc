#include "platform/admission.h"

#include <algorithm>
#include <chrono>

#include "common/percentile.h"
#include "common/retry.h"
#include "common/strings.h"

namespace tvdp::platform {
namespace {

/// Bounded per-endpoint latency reservoir size.
constexpr size_t kLatencyRingCap = 4096;

/// cv wait slice: cancellation tokens are flipped by foreign threads that
/// never touch our condition variable, so queued waiters poll in slices.
constexpr auto kWaitSlice = std::chrono::milliseconds(5);

}  // namespace

const char* OverloadStateName(OverloadState s) {
  switch (s) {
    case OverloadState::kNormal:
      return "normal";
    case OverloadState::kDegraded:
      return "degraded";
    case OverloadState::kShedding:
      return "shedding";
  }
  return "unknown";
}

AdmissionTicket::AdmissionTicket(AdmissionTicket&& other) noexcept
    : controller_(other.controller_), degraded_(other.degraded_) {
  other.controller_ = nullptr;
}

AdmissionTicket& AdmissionTicket::operator=(AdmissionTicket&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = other.controller_;
    degraded_ = other.degraded_;
    other.controller_ = nullptr;
  }
  return *this;
}

AdmissionTicket::~AdmissionTicket() { Release(); }

void AdmissionTicket::Release() {
  if (controller_) {
    controller_->ReleaseSlot();
    controller_ = nullptr;
  }
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  options_.max_concurrent = std::max(options_.max_concurrent, 1);
}

double AdmissionController::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

OverloadState AdmissionController::StateLocked() const {
  if ((options_.max_queue_interactive > 0 &&
       interactive_.size() >= options_.max_queue_interactive) ||
      (options_.max_queue_batch > 0 &&
       batch_.size() >= options_.max_queue_batch)) {
    return OverloadState::kShedding;
  }
  size_t waiters = interactive_.size() + batch_.size();
  size_t capacity =
      std::max<size_t>(options_.max_queue_interactive + options_.max_queue_batch,
                       1);
  size_t degrade_at = std::max<size_t>(
      1, static_cast<size_t>(options_.degrade_occupancy *
                             static_cast<double>(capacity)));
  if (waiters >= degrade_at) return OverloadState::kDegraded;
  if (options_.degraded_hold_ms > 0 &&
      NowMs() - last_backlog_ms_ <= options_.degraded_hold_ms) {
    return OverloadState::kDegraded;
  }
  return OverloadState::kNormal;
}

void AdmissionController::GrantNextLocked() {
  while (in_flight_ < options_.max_concurrent) {
    // The state is taken BEFORE popping: having had to queue is itself the
    // overload signal, so a waiter granted from a backlog runs degraded
    // even when it was the last one waiting.
    OverloadState state_at_grant = StateLocked();
    // Newest-first (LIFO) service, interactive before batch: under
    // overload the most recent arrival is the one whose caller is most
    // likely still waiting for the answer.
    std::shared_ptr<Waiter> w;
    if (!interactive_.empty()) {
      w = interactive_.back();
      interactive_.pop_back();
    } else if (!batch_.empty()) {
      w = batch_.back();
      batch_.pop_back();
    } else {
      break;
    }
    w->outcome = Waiter::Outcome::kGranted;
    w->granted_degraded = state_at_grant >= OverloadState::kDegraded;
    ++in_flight_;
    ++counters_.admitted;
    if (w->granted_degraded) ++counters_.admitted_degraded;
  }
  cv_.notify_all();
}

void AdmissionController::ReleaseSlot() {
  std::lock_guard<std::mutex> lock(mutex_);
  --in_flight_;
  ++counters_.completed;
  GrantNextLocked();
}

void AdmissionController::RemoveWaiterLocked(const std::shared_ptr<Waiter>& w) {
  auto& queue = QueueFor(w->priority);
  auto it = std::find(queue.begin(), queue.end(), w);
  if (it != queue.end()) queue.erase(it);
}

Result<AdmissionTicket> AdmissionController::Admit(const std::string& key,
                                                   Priority priority,
                                                   const RequestContext& ctx) {
  std::unique_lock<std::mutex> lock(mutex_);
  {
    Status s = ctx.Check();
    if (!s.ok()) {
      if (s.code() == StatusCode::kCancelled) {
        ++counters_.cancelled;
      } else {
        ++counters_.expired;
      }
      return s;
    }
  }

  if (options_.rate_per_sec > 0) {
    double now = NowMs();
    double burst =
        options_.burst > 0 ? options_.burst : std::max(options_.rate_per_sec, 1.0);
    Bucket& b = buckets_[key];
    if (!b.initialized) {
      b.tokens = burst;
      b.last_ms = now;
      b.initialized = true;
    }
    b.tokens = std::min(
        burst, b.tokens + (now - b.last_ms) * options_.rate_per_sec / 1000.0);
    b.last_ms = now;
    if (b.tokens < 1.0) {
      ++counters_.rate_limited;
      double wait_ms = (1.0 - b.tokens) / options_.rate_per_sec * 1000.0;
      return WithRetryAfterHint(
          Status::ResourceExhausted("rate limit exceeded for key " + key),
          wait_ms);
    }
    b.tokens -= 1.0;
  }

  if (in_flight_ < options_.max_concurrent) {
    ++in_flight_;
    ++counters_.admitted;
    bool degraded = StateLocked() >= OverloadState::kDegraded;
    if (degraded) ++counters_.admitted_degraded;
    return AdmissionTicket(this, degraded);
  }

  // All slots busy: queue, displacing the oldest waiter when full. The
  // displaced request has been waiting longest and is the most likely to
  // have outlived its caller's patience.
  auto& queue = QueueFor(priority);
  size_t cap = QueueCap(priority);
  if (cap == 0) {
    ++counters_.shed_queue_full;
    return WithRetryAfterHint(
        Status::ResourceExhausted("server overloaded (queue disabled)"),
        options_.max_queue_wait_ms);
  }
  if (queue.size() >= cap) {
    queue.front()->outcome = Waiter::Outcome::kShed;
    queue.pop_front();
    ++counters_.shed_queue_full;
    cv_.notify_all();
  }
  auto waiter = std::make_shared<Waiter>();
  waiter->priority = priority;
  queue.push_back(waiter);
  last_backlog_ms_ = NowMs();

  auto wait_start = std::chrono::steady_clock::now();
  for (;;) {
    if (waiter->outcome == Waiter::Outcome::kGranted) {
      return AdmissionTicket(this, waiter->granted_degraded);
    }
    if (waiter->outcome == Waiter::Outcome::kShed) {
      return WithRetryAfterHint(
          Status::ResourceExhausted(
              "server overloaded (shed from admission queue)"),
          options_.max_queue_wait_ms);
    }
    Status s = ctx.Check();
    if (!s.ok()) {
      RemoveWaiterLocked(waiter);
      if (s.code() == StatusCode::kCancelled) {
        ++counters_.cancelled;
        return Status::Cancelled("request cancelled while queued for admission");
      }
      ++counters_.expired;
      return Status::DeadlineExceeded(
          "request deadline expired while queued for admission");
    }
    double waited_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - wait_start)
                           .count();
    if (waited_ms >= options_.max_queue_wait_ms) {
      RemoveWaiterLocked(waiter);
      ++counters_.shed_stale;
      return WithRetryAfterHint(
          Status::ResourceExhausted(StrFormat(
              "server overloaded (stale after %.0f ms in admission queue)",
              waited_ms)),
          options_.max_queue_wait_ms);
    }
    cv_.wait_for(lock, kWaitSlice);
  }
}

void AdmissionController::RecordLatency(const std::string& endpoint,
                                        double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  LatencyRing& ring = latencies_[endpoint];
  if (ring.samples.size() < kLatencyRingCap) {
    ring.samples.push_back(ms);
  } else {
    ring.samples[ring.next] = ms;
    ring.next = (ring.next + 1) % kLatencyRingCap;
  }
  ++ring.count;
}

ServerStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out = counters_;
  out.queue_depth_interactive = interactive_.size();
  out.queue_depth_batch = batch_.size();
  out.in_flight = in_flight_;
  out.state = StateLocked();
  return out;
}

OverloadState AdmissionController::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return StateLocked();
}

Json AdmissionController::StatsJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json out = Json::MakeObject();
  out["admitted"] = counters_.admitted;
  out["admitted_degraded"] = counters_.admitted_degraded;
  out["shed_queue_full"] = counters_.shed_queue_full;
  out["shed_stale"] = counters_.shed_stale;
  out["rate_limited"] = counters_.rate_limited;
  out["expired"] = counters_.expired;
  out["cancelled"] = counters_.cancelled;
  out["completed"] = counters_.completed;
  out["queue_depth_interactive"] = interactive_.size();
  out["queue_depth_batch"] = batch_.size();
  out["in_flight"] = in_flight_;
  out["state"] = OverloadStateName(StateLocked());
  Json endpoints = Json::MakeObject();
  for (const auto& [name, ring] : latencies_) {
    Json e = Json::MakeObject();
    e["count"] = ring.count;
    e["p50_ms"] = Percentile(ring.samples, 50);
    e["p99_ms"] = Percentile(ring.samples, 99);
    endpoints[name] = std::move(e);
  }
  out["endpoints"] = std::move(endpoints);
  return out;
}

}  // namespace tvdp::platform
