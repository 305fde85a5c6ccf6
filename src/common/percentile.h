#ifndef TVDP_COMMON_PERCENTILE_H_
#define TVDP_COMMON_PERCENTILE_H_

#include <vector>

namespace tvdp {

/// The `pct`-th percentile (0-100) of `samples` by nearest rank: the
/// ceil(pct/100 * n)-th smallest sample, so p50 over 1..100 is 50 and p100
/// is the maximum. Empty input yields 0. Takes the samples by value (it
/// sorts them).
double Percentile(std::vector<double> samples, double pct);

}  // namespace tvdp

#endif  // TVDP_COMMON_PERCENTILE_H_
