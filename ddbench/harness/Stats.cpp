//===- Stats.cpp ----------------------------------------------------------==//

#include "Stats.h"

#include <algorithm>

namespace ddbench {

size_t nearestRank(size_t N, unsigned Bp) {
  size_t K = (static_cast<size_t>(Bp) * N + 9999) / 10000;
  return std::clamp<size_t>(K, 1, N);
}

size_t samplesBeyond(size_t N, unsigned Bp) {
  return N == 0 ? 0 : N - nearestRank(N, Bp);
}

size_t minSamplesFor(unsigned Bp, size_t MinBeyond) {
  size_t N = 1;
  while (samplesBeyond(N, Bp) < MinBeyond)
    ++N;
  return N;
}

double percentile(std::vector<double> Samples, unsigned Bp) {
  if (Samples.empty())
    return 0;
  size_t K = nearestRank(Samples.size(), Bp);
  std::nth_element(Samples.begin(), Samples.begin() + (K - 1), Samples.end());
  return Samples[K - 1];
}

} // namespace ddbench
