// The open-loop arrival schedule of the serving workload. Independent
// users send on their own clocks, so the load generator sends each
// request at its scheduled instant whether or not earlier ones have been
// answered, and every latency is measured from the scheduled instant: a
// stall then shows up in the latency of every request it delayed,
// instead of silently lowering the offered rate.
#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

struct Arrival {
  double at_s = 0.0;   // scheduled send time, seconds from phase start
  int32_t entity = 0;  // which entity's stream sends next
};

// Poisson arrivals at `rate_per_s` over [0, duration_s), each addressed to
// an entity drawn uniformly from [0, entities). A pure function of its
// arguments: the same seed gives the same schedule on every platform
// (the generator and both draws are spelled out, not left to <random>'s
// implementation-defined distributions).
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s, int32_t entities);

// The three instants of one open-loop request.
struct Timed {
  double scheduled_s = 0.0;  // when the schedule said to send it
  double sent_s = 0.0;       // when the generator actually wrote it
  double received_s = 0.0;   // when its response line was read

  // Latency a user sees: from the scheduled instant, so generator or
  // server stalls are charged to every request they delayed.
  double latency_s() const { return received_s - scheduled_s; }
  // How far behind its schedule the generator ran for this request.
  double late_s() const { return sent_s - scheduled_s; }
};

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
