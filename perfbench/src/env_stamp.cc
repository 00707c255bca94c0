#include "env_stamp.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include <fstream>
#include <string>

#include "common/cpu_features.h"
#include "common/thread_pool.h"

namespace perfbench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::vector<int> StartupCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

}  // namespace

int PinThreads() {
  static const std::vector<int> cpus = StartupCpus();
  if (cpus.empty()) return 0;
  std::vector<long> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') tids.push_back(std::atol(entry->d_name));
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  for (size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    sched_setaffinity(static_cast<pid_t>(tids[i]), sizeof(one), &one);
  }
  return static_cast<int>(std::min(tids.size(), cpus.size()));
}

tgcrn::obs::Json EnvStamp() {
  using tgcrn::obs::Json;
  Json stamp = Json::Object();
  stamp.Set("isa", Json::Str(tgcrn::common::SimdIsaName(
                       tgcrn::common::ActiveSimdIsa())));
  stamp.Set("pool_threads", Json::Int(tgcrn::common::GetNumThreads()));
  stamp.Set("nproc", Json::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  stamp.Set("cpu_model", Json::Str(CpuModel()));
  stamp.Set("build_type", Json::Str(PERFBENCH_BUILD_TYPE));
  stamp.Set("compiler", Json::Str(std::string("g++ ") + __VERSION__));
  return stamp;
}

}  // namespace perfbench
