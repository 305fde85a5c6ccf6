#ifndef TVDP_BENCH_E2E_WORKLOADS_H_
#define TVDP_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"

namespace tvdp::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window; a warm-up of min(1 s, seconds / 4)
  /// runs before it.
  double seconds = 8;
  /// Traced run: the second half of the window replays every request layer
  /// by layer and the run reports per-layer metrics instead of end-to-end
  /// ones.
  bool trace = false;
  /// Catalog size; 0 = the workload's default.
  int images = 0;
  /// Scratch directory for the durable stores (created and removed by the
  /// run).
  std::string data_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::vector<std::string> violations;  ///< failed correctness checks
  int64_t attempted = 0;                ///< requests issued
  int64_t failed = 0;  ///< error, shed, degraded or partial responses
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::vector<Metric> details;  ///< sample counts and other context
  Json trace;                   ///< traced runs: spans and counters
};

/// The workload's default catalog size; 0 for an unknown workload.
int DefaultImages(const std::string& workload);

Result<Outcome> RunWorkload(const Options& options);

/// Serves `images` images twice, once seeded from catalog rows and reopened
/// through Tvdp::Open, once built through IngestImage / StoreFeature /
/// AnnotateImage, and checks that every request of the read mix gets
/// byte-identical search_datasets / download_datasets envelopes from both.
Status CheckSeedingEquivalence(uint64_t seed, int images,
                               const std::string& data_dir);

}  // namespace tvdp::e2e

#endif  // TVDP_BENCH_E2E_WORKLOADS_H_
