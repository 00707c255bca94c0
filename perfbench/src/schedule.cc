#include "schedule.h"

#include <cmath>

namespace perfbench {

namespace {

// SplitMix64: a fixed, portable 64-bit generator.
uint64_t NextU64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Uniform in [0, 1) with 53 random bits.
double NextUnit(uint64_t* state) {
  return static_cast<double>(NextU64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s, int32_t entities) {
  std::vector<Arrival> schedule;
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0) || entities <= 0) {
    return schedule;
  }
  uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-NextUnit(&state)) / rate_per_s;
    if (t >= duration_s) break;
    const auto entity = static_cast<int32_t>(
        NextU64(&state) % static_cast<uint64_t>(entities));
    schedule.push_back({t, entity});
  }
  return schedule;
}

}  // namespace perfbench
