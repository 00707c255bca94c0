// Exact order statistics over raw samples. Every timing the benchmark
// reports is computed here from the full list of measured values, never
// from bucketed histograms.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <vector>

namespace perfbench {

// The q-quantile (q in [0, 1]) of `samples` by linear interpolation
// between closest ranks: position h = (n - 1) * q, value
// x[floor(h)] + (h - floor(h)) * (x[floor(h) + 1] - x[floor(h)]) over the
// sorted samples. Exact for any n >= 1; q = 0 and q = 1 give the minimum
// and maximum. Returns NaN for an empty sample or q outside [0, 1].
double Quantile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
