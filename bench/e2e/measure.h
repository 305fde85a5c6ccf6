#ifndef TVDP_BENCH_E2E_MEASURE_H_
#define TVDP_BENCH_E2E_MEASURE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/json.h"

namespace tvdp::e2e {

/// Milliseconds on the steady clock.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark's one percentile helper. `p` is on a 0-100 scale and the
/// convention is nearest rank: the smallest sample with at least p% of the
/// samples at or below it (p = 50 is the lower median, p = 100 the
/// maximum). 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

double Mean(const std::vector<double>& samples);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// An Fs decorator over the POSIX filesystem that counts what the durable
/// catalog writes: appends, bytes appended, fsyncs, and each fsync's
/// latency. Every durable engine in the benchmark runs on one.
class CountingFs : public Fs {
 public:
  struct Counts {
    int64_t appends = 0;
    int64_t bytes = 0;
    int64_t syncs = 0;

    friend Counts operator-(const Counts& a, const Counts& b) {
      return {a.appends - b.appends, a.bytes - b.bytes, a.syncs - b.syncs};
    }
  };

  Counts counts() const;
  /// fsync latencies (ms) recorded since the last call.
  std::vector<double> TakeSyncMs();

  Result<std::unique_ptr<WritableFile>> OpenWritable(const std::string& path,
                                                     bool truncate) override;
  Result<std::vector<uint8_t>> ReadAll(const std::string& path) override {
    return base_->ReadAll(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Status SyncDirOf(const std::string& path) override {
    return base_->SyncDirOf(path);
  }

 private:
  friend class CountingFile;

  Fs* base_ = Fs::Default();
  std::atomic<int64_t> appends_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> syncs_{0};
  std::mutex sync_ms_mutex_;
  std::vector<double> sync_ms_;  ///< guarded by sync_ms_mutex_
};

/// The traced run's in-memory record: spans at each layer boundary the
/// benchmark calls into, plus named samples (per-layer values measured or
/// derived per request) and counters. Thread-safe; written out at exit.
class Tracer {
 public:
  explicit Tracer(double origin_ms) : origin_ms_(origin_ms) {}

  /// Records span `name` of request `request_id` over [start_ms, end_ms]
  /// (NowMs() clock) under `parent` ("" for a root), and adds its duration
  /// in ms as a sample named `name`.
  void Span(uint64_t request_id, const std::string& name,
            const std::string& parent, double start_ms, double end_ms);
  void Sample(const std::string& name, double value);
  void Count(const std::string& name, double delta);

  std::vector<double> Samples(const std::string& name) const;
  double Counter(const std::string& name) const;

  /// {"spans":[{request_id,name,parent,start_us,end_us}...],
  ///  "counters":{...}}, with span times relative to the origin.
  Json ToJson() const;

 private:
  struct Record {
    uint64_t request_id;
    std::string name;
    std::string parent;
    double start_ms;
    double end_ms;
  };

  const double origin_ms_;
  mutable std::mutex mutex_;
  std::vector<Record> spans_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counters_;
};

}  // namespace tvdp::e2e

#endif  // TVDP_BENCH_E2E_MEASURE_H_
