#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q >= 0.0 && q <= 1.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(samples.begin(), samples.end());
  const double h = static_cast<double>(samples.size() - 1) * q;
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

}  // namespace perfbench
