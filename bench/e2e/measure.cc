#include "measure.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <utility>

namespace tvdp::e2e {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

/// Forwards to the real file, counting appends and timing fsyncs.
class CountingFile : public WritableFile {
 public:
  CountingFile(std::unique_ptr<WritableFile> base, CountingFs* fs)
      : base_(std::move(base)), fs_(fs) {}

  Status Append(const uint8_t* data, size_t n) override {
    fs_->appends_.fetch_add(1, std::memory_order_relaxed);
    fs_->bytes_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
    return base_->Append(data, n);
  }
  Status Sync() override {
    const double start = NowMs();
    Status s = base_->Sync();
    const double ms = NowMs() - start;
    fs_->syncs_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(fs_->sync_ms_mutex_);
    fs_->sync_ms_.push_back(ms);
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  CountingFs* fs_;
};

Result<std::unique_ptr<WritableFile>> CountingFs::OpenWritable(
    const std::string& path, bool truncate) {
  TVDP_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        base_->OpenWritable(path, truncate));
  return std::unique_ptr<WritableFile>(
      std::make_unique<CountingFile>(std::move(file), this));
}

CountingFs::Counts CountingFs::counts() const {
  return {appends_.load(std::memory_order_relaxed),
          bytes_.load(std::memory_order_relaxed),
          syncs_.load(std::memory_order_relaxed)};
}

std::vector<double> CountingFs::TakeSyncMs() {
  std::lock_guard<std::mutex> lock(sync_ms_mutex_);
  return std::exchange(sync_ms_, {});
}

void Tracer::Span(uint64_t request_id, const std::string& name,
                  const std::string& parent, double start_ms, double end_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({request_id, name, parent, start_ms, end_ms});
  samples_[name].push_back(end_ms - start_ms);
}

void Tracer::Sample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_[name].push_back(value);
}

void Tracer::Count(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

std::vector<double> Tracer::Samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>() : it->second;
}

double Tracer::Counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Json Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json spans = Json::MakeArray();
  for (const Record& r : spans_) {
    Json s = Json::MakeObject();
    s["request_id"] = static_cast<int64_t>(r.request_id);
    s["name"] = r.name;
    s["parent"] = r.parent;
    s["start_us"] = std::round((r.start_ms - origin_ms_) * 1000);
    s["end_us"] = std::round((r.end_ms - origin_ms_) * 1000);
    spans.Append(std::move(s));
  }
  Json counters = Json::MakeObject();
  for (const auto& [name, value] : counters_) counters[name] = value;
  Json out = Json::MakeObject();
  out["spans"] = std::move(spans);
  out["counters"] = std::move(counters);
  return out;
}

}  // namespace tvdp::e2e
