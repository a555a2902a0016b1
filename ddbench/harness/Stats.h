//===- Stats.h - Percentiles with an explicit tail-sample rule ---*- C++ -*-==//
///
/// \file
/// Nearest-rank percentiles. A percentile is only worth reporting when
/// enough samples lie beyond it: with N samples the p-th percentile is the
/// k-th smallest, k = ceil(p * N), and N - k samples lie beyond it. The
/// harness reports p99 only when that count is at least kMinTailSamples,
/// and sizes its runs (minSamplesFor) so that it is.
///
/// Percentiles are given in basis points (9900 = p99) so the rank is exact
/// integer arithmetic.
///
//===----------------------------------------------------------------------===//

#ifndef DDBENCH_STATS_H
#define DDBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace ddbench {

/// 1-based nearest rank of percentile \p Bp among \p N samples (N >= 1).
size_t nearestRank(size_t N, unsigned Bp);

/// Samples strictly beyond the \p Bp percentile's rank.
size_t samplesBeyond(size_t N, unsigned Bp);

/// Smallest sample count that puts at least \p MinBeyond samples beyond
/// the \p Bp percentile.
size_t minSamplesFor(unsigned Bp, size_t MinBeyond);

/// Nearest-rank percentile of \p Samples (unsorted; copied). 0 when empty.
double percentile(std::vector<double> Samples, unsigned Bp);

inline double median(const std::vector<double> &Samples) {
  return percentile(Samples, 5000);
}

} // namespace ddbench

#endif // DDBENCH_STATS_H
