#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Raw samples of one timing or ratio series. Every percentile the
/// benchmark reports is computed from these samples directly (nearest
/// rank), never from a bucketed histogram.
class Series {
 public:
  explicit Series(std::string name = "") : name_(std::move(name)) {}
  void Add(double value) { values_.push_back(value); }
  void Reserve(size_t n) { values_.reserve(n); }
  size_t size() const { return values_.size(); }
  const std::string& name() const { return name_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::string name_;
  std::vector<double> values_;
};

/// One percentile of a series, with the facts that let a reader (and
/// the self-check) judge whether it is supported by the data.
struct Percentile {
  double value = 0.0;
  size_t n = 0;       ///< samples in the series
  size_t beyond = 0;  ///< samples strictly after the percentile's rank
  double min = 0.0;
  double max = 0.0;
};

/// Nearest-rank percentile (q in (0, 1]) of the series; n = 0 gives an
/// all-zero result.
Percentile ComputePercentile(const Series& series, double q);

/// Median of a small set of values (repeated set-ups and builds).
double Median(std::vector<double> values);

/// Smallest sample count for which the q-percentile has at least
/// `kMinBeyond` samples beyond it.
size_t MinSamplesFor(double q);
inline constexpr size_t kMinBeyond = 10;

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
