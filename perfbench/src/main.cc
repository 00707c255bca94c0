// tgcrn_perfbench: runs one benchmark workload and prints one JSON result
// line (metrics with units and sample counts, attempted/failed counts,
// the golden digest and the environment stamp). perfbench/run.py builds
// this binary, runs it and turns the line into the benchmark's result.
//
//   tgcrn_perfbench --workload train-metro|train-city-topk|serve-fleet
//       --seed N --seconds S --trace 0|1 [--trace-out spans.jsonl]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/thread_pool.h"
#include "env_stamp.h"
#include "obs/json.h"
#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--trace-out") {
      options->trace_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: tgcrn_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out spans.jsonl]\n");
    return 2;
  }
  // Two kernel threads leave room for the load generator and the OS on a
  // shared 4-core box, and still expose both pool-dispatch overhead and
  // parallel speedup.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  options.threads = static_cast<int>(std::clamp<long>(nproc, 1, 2));
  tgcrn::common::SetNumThreads(options.threads);
  // One CPU per thread: unpinned, the kernel's placement of the pool,
  // server and load-generator threads changes from run to run and with it
  // the serving latency.
  perfbench::PinThreads();

  perfbench::Outcome out;
  if (options.workload == "train-metro") {
    perfbench::RunTrainWorkload(perfbench::MetroSpec(), options, &out);
  } else if (options.workload == "train-city-topk") {
    perfbench::RunTrainWorkload(perfbench::CitySpec(), options, &out);
  } else if (options.workload == "serve-fleet") {
    perfbench::RunServeWorkload(options, &out);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }

  using tgcrn::obs::Json;
  Json result = Json::Object();
  result.Set("workload", Json::Str(options.workload));
  result.Set("seed", Json::Int(static_cast<int64_t>(options.seed)));
  result.Set("trace", Json::Bool(options.trace));
  result.Set("attempted", Json::Int(out.attempted));
  result.Set("failed", Json::Int(out.failed));
  result.Set("golden", Json::Str(out.golden));
  Json errors = Json::Array();
  for (const std::string& e : out.errors) errors.Append(Json::Str(e));
  result.Set("errors", std::move(errors));
  Json notes = Json::Array();
  for (const std::string& n : out.notes) notes.Append(Json::Str(n));
  result.Set("notes", std::move(notes));
  Json metrics = Json::Object();
  for (const auto& [name, m] : out.metrics) {
    Json metric = Json::Object();
    metric.Set("value", Json::Number(m.value));
    metric.Set("unit", Json::Str(m.unit));
    metric.Set("samples", Json::Int(m.samples));
    metrics.Set(name, std::move(metric));
  }
  result.Set("metrics", std::move(metrics));
  result.Set("stamp", perfbench::EnvStamp());
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
