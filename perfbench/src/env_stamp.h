// The environment a result was measured in. Results whose stamps differ
// are not comparable (compare.py refuses them).
#ifndef PERFBENCH_ENV_STAMP_H_
#define PERFBENCH_ENV_STAMP_H_

#include "obs/json.h"

namespace perfbench {

// ISA, kernel pool width, nproc, CPU model, build type and compiler.
tgcrn::obs::Json EnvStamp();

// Pins every thread of the process to a CPU of its own, round robin over
// the CPUs the process was started with (thread ids in creation order:
// the main thread first). Threads inherit their creator's mask, so call
// this again after starting a thread. Returns the number of CPUs used.
int PinThreads();

}  // namespace perfbench

#endif  // PERFBENCH_ENV_STAMP_H_
