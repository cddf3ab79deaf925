// Order statistics the benchmark reports.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place).
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

/// The median of each block of `block` consecutive samples, averaged over
/// the blocks: the run's median latency, estimated so that it moves
/// smoothly with the share of the run the host spent in a slow phase
/// instead of flipping between the fast and the slow mode.
inline double BlockMedian(const std::vector<double>& v, size_t block = 32) {
  size_t blocks = v.size() / block;
  if (blocks == 0) return Median(v);
  double sum = 0;
  for (size_t b = 0; b < blocks; ++b) {
    sum += Median(std::vector<double>(v.begin() + static_cast<long>(b * block),
                                      v.begin() + static_cast<long>((b + 1) * block)));
  }
  return sum / static_cast<double>(blocks);
}

/// The q-quantile only when at least `min_beyond` samples lie above it,
/// so a tail percentile always rests on a tail of real samples.
inline std::optional<double> TailQuantile(std::vector<double>& v, double q,
                                          size_t min_beyond = 10) {
  double x = Quantile(v, q);
  auto beyond = static_cast<size_t>(v.end() - std::upper_bound(v.begin(), v.end(), x));
  if (beyond < min_beyond) return std::nullopt;
  return x;
}

/// (Q3 - Q1) / median: the spread figure the benchmark's bounds use.
inline double RelativeIqr(std::vector<double> v) {
  double med = Quantile(v, 0.5);
  if (med == 0) return 0;
  return (Quantile(v, 0.75) - Quantile(v, 0.25)) / med;
}

inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
