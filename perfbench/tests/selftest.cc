// Self-tests of the benchmark's own measurement helpers: the exact
// quantile, the open-loop schedule and the span self-time arithmetic.
// Checks stay active in every build type (no assert).
#include <cmath>
#include <cstdio>
#include <vector>

#include "schedule.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void TestQuantile() {
  using perfbench::Quantile;
  // Linear interpolation between closest ranks over sorted samples.
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  Check(Near(Quantile(v, 0.0), 1.0), "q0 is the minimum");
  Check(Near(Quantile(v, 1.0), 4.0), "q1 is the maximum");
  Check(Near(Quantile(v, 0.5), 2.5), "median of an even sample interpolates");
  Check(Near(Quantile(v, 0.25), 1.75), "q0.25 at position 0.75");
  Check(Near(perfbench::Median({5.0, 1.0, 9.0}), 5.0), "odd median");
  Check(Near(Quantile({7.0}, 0.99), 7.0), "single sample");
  // p99 of 1..1000: position 989.01 -> 990.01.
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  Check(Near(Quantile(ramp, 0.99), 990.01), "p99 of 1..1000 is exact");
  Check(std::isnan(Quantile({}, 0.5)), "empty sample is NaN");
  Check(std::isnan(Quantile(v, 1.5)), "q outside [0, 1] is NaN");
}

void TestSchedule() {
  using perfbench::PoissonSchedule;
  const auto a = PoissonSchedule(42, 500.0, 4.0, 64);
  const auto b = PoissonSchedule(42, 500.0, 4.0, 64);
  const auto c = PoissonSchedule(43, 500.0, 4.0, 64);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_s == b[i].at_s && a[i].entity == b[i].entity;
  }
  Check(same, "the same seed gives the same schedule");
  Check(a.size() != c.size() || a.front().at_s != c.front().at_s,
        "another seed gives another schedule");
  // 2000 expected arrivals; 5 sigma is about 224.
  Check(a.size() > 1776 && a.size() < 2224, "arrival count matches the rate");
  bool sorted = true, in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].at_s < a[i - 1].at_s) sorted = false;
    if (a[i].at_s < 0.0 || a[i].at_s >= 4.0 || a[i].entity < 0 ||
        a[i].entity >= 64) {
      in_range = false;
    }
  }
  Check(sorted, "arrivals are in time order");
  Check(in_range, "arrivals stay inside the phase and the entity range");
  Check(PoissonSchedule(1, 0.0, 1.0, 4).empty(), "zero rate gives nothing");

  // Latency counts from the scheduled instant, not from the actual send.
  perfbench::Timed t;
  t.scheduled_s = 1.0;
  t.sent_s = 1.3;
  t.received_s = 1.5;
  Check(Near(t.latency_s(), 0.5), "latency is measured from the schedule");
  Check(Near(t.late_s(), 0.3), "lateness is send minus schedule");
}

void TestSpans() {
  perfbench::SpanLog log;
  const int32_t root = log.Add("train", "step", -1, -1, 0, 1000000000);
  log.Add("core", "forward", -1, root, 0, 300000000);
  log.Add("autograd", "backward", -1, root, 300000000, 900000000);
  const auto self = log.SelfSeconds();
  Check(Near(self.at("train"), 0.1), "self time excludes direct children");
  Check(Near(self.at("core"), 0.3), "leaf self time is its duration");
  Check(log.Durations("autograd", "backward").size() == 1, "durations");
}

}  // namespace

int main() {
  TestQuantile();
  TestSchedule();
  TestSpans();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
