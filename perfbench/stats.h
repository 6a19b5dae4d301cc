// Clock and summary helpers shared by main.cc and replay.cc.
#ifndef TENET_PERFBENCH_STATS_H_
#define TENET_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile `q` of `sample` with linear interpolation; 0 when empty.
inline double Quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] +
         (pos - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
}

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace perfbench

#endif  // TENET_PERFBENCH_STATS_H_
