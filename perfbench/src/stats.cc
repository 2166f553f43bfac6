#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile ComputePercentile(const Series& series, double q) {
  Percentile p;
  p.n = series.size();
  if (p.n == 0) return p;
  std::vector<double> sorted = series.values();
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<size_t>(rank, 1, p.n);
  p.value = sorted[rank - 1];
  p.beyond = p.n - rank;
  p.min = sorted.front();
  p.max = sorted.back();
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

size_t MinSamplesFor(double q) {
  // beyond = n - ceil(q n) >= kMinBeyond.
  size_t n = kMinBeyond + 1;
  while (n - static_cast<size_t>(std::ceil(q * static_cast<double>(n))) <
         kMinBeyond) {
    ++n;
  }
  return n;
}

}  // namespace perfbench
