#include "common/percentile.h"

#include <algorithm>
#include <cmath>

namespace tvdp {

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

}  // namespace tvdp
