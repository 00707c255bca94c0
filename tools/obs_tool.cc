// Copyright 2026 TGCRN Reproduction Authors
// tgcrn_obs: renders and gates the observability artifacts — kernel cost
// profiles (obs/prof.h), run reports (obs/report.h) and a running
// tgcrn_serve's request telemetry. Usage() below lists the subcommands;
// docs/API.md documents them.
//
// A file is a profile JSON or a run-report JSONL whose epoch "prof" blocks
// are summed into one profile. `diff` of two reports runs DiffReports;
// any other pair is reduced to profiles and runs DiffProfiles (gating
// rules: obs/diff.h). The server subcommands send one {"op":"stats"} line
// per poll on a fresh connection (docs/SERVING.md).
//
// Exit codes: 0 ok, 1 regression / server unreachable or replying with an
// error, 2 usage or parse error.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/table_printer.h"
#include "obs/diff.h"
#include "obs/json.h"
#include "obs/report.h"
#include "serve/telemetry.h"

namespace {

using tgcrn::TablePrinter;
using tgcrn::common::ParseDouble;
using tgcrn::common::ParseInt;
using tgcrn::obs::Json;
using tgcrn::obs::ProfReport;
using tgcrn::obs::RunReport;

int Usage() {
  std::fprintf(
      stderr,
      "usage: tgcrn_obs show|stacks <file>\n"
      "       tgcrn_obs diff <baseline> <candidate> [--max-regress-pct=N]\n"
      "                 [--max-time-regress-pct=N|-1]\n"
      "       tgcrn_obs show|watch|slow --port P [--host H] [--interval S]\n"
      "                 [--count N]\n"
      "  show <file>  kernel roofline table plus the attribution tree\n"
      "  stacks       collapsed flamegraph lines (feed to flamegraph.pl)\n"
      "  diff         gate a candidate at --max-regress-pct (default 10)\n"
      "               and --max-time-regress-pct (unset: the same, -1:\n"
      "               timing rows are not gated)\n"
      "  show|watch|slow --port P  a running tgcrn_serve's stats: one\n"
      "               snapshot, one every --interval seconds (default 2;\n"
      "               --count polls, 0 = until interrupted), or the\n"
      "               slow-request exemplars\n"
      "<file> is a profile JSON or a run-report JSONL. Flags take\n"
      "--name=value or --name value.\n"
      "exit codes: 0 ok, 1 regression or server error, 2 usage or parse "
      "error\n"
      "docs: docs/API.md, docs/BENCHMARKS.md, docs/SERVING.md\n");
  return 2;
}

struct Args {
  std::string command;
  std::vector<std::string> files;
  tgcrn::obs::ReportDiffOptions diff;
  bool server = false;  // show|watch|slow against --port
  std::string host = "127.0.0.1";
  int port = 0;
  double interval_s = 2.0;
  int count = 0;  // watch polls; 0 = until interrupted
};

// Stores a parsed flag value; false when the parse failed.
template <typename T, typename U>
bool Store(const std::optional<U>& parsed, T* out) {
  if (parsed) *out = static_cast<T>(*parsed);
  return parsed.has_value();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  const std::string command = args->command = argv[1];
  const bool diff = command == "diff";
  const bool stats =
      command == "show" || command == "watch" || command == "slow";
  bool any_flag = false;
  for (int i = 2; i < argc; ++i) {
    std::string name = argv[i];
    if (name.empty() || name[0] != '-') {
      args->files.push_back(name);
      continue;
    }
    std::string value;
    if (const size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "tgcrn_obs: %s needs a value\n", name.c_str());
      return false;
    }
    const char* v = value.c_str();
    bool valid = true;
    if (diff && name == "--max-regress-pct") {
      valid = Store(ParseDouble(v, 0.0, 1e6), &args->diff.max_regress_pct);
    } else if (diff && name == "--max-time-regress-pct") {
      valid = Store(ParseDouble(v, -1.0, 1e6),
                    &args->diff.max_time_regress_pct);
    } else if (stats && name == "--port") {
      valid = Store(ParseInt(v, 1, 65535), &args->port);
    } else if (stats && name == "--host") {
      args->host = value;
    } else if (stats && name == "--interval") {
      valid = Store(ParseDouble(v, 0.0, 86400.0), &args->interval_s);
    } else if (stats && name == "--count") {
      valid = Store(ParseInt(v, 0, INT_MAX), &args->count);
    } else {
      std::fprintf(stderr, "tgcrn_obs: %s does not take %s\n",
                   command.c_str(), name.c_str());
      return false;
    }
    if (!valid) {
      std::fprintf(stderr, "tgcrn_obs: invalid value '%s' for %s\n", v,
                   name.c_str());
      return false;
    }
    any_flag = true;
  }
  if (diff) return args->files.size() == 2;
  if (command == "stacks" || (command == "show" && !any_flag)) {
    return args->files.size() == 1;
  }
  if (!stats) return false;
  if (args->port == 0) {
    std::fprintf(stderr, "tgcrn_obs: %s needs --port\n", command.c_str());
    return false;
  }
  args->server = true;
  return args->files.empty();
}

// One input file: a profile JSON object (it has "kernels") or, failing
// that, run-report JSONL.
struct Input {
  std::string path;
  bool is_report = false;
  ProfReport prof;  // the profile, or a report's summed epoch blocks
  RunReport run;
};

bool Load(const std::string& path, Input* in) {
  in->path = path;
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "tgcrn_obs: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string content = buffer.str();
  Json json;
  if (Json::Parse(content, &json) && json.Has("kernels")) {
    in->prof = ProfReport::FromJson(json);
    return true;
  }
  if (!RunReport::FromJsonl(content, &in->run)) {
    std::fprintf(stderr,
                 "tgcrn_obs: %s is neither a profile JSON file nor report "
                 "JSONL\n",
                 path.c_str());
    return false;
  }
  in->is_report = true;
  return true;
}

// Sums a report's epoch "prof" blocks into in->prof; a profile already is
// one.
bool ReduceToProfile(Input* in) {
  if (!in->is_report) return true;
  bool any = false;
  for (const auto& epoch : in->run.epochs) {
    if (!epoch.has_prof) continue;
    any = true;
    in->prof.Accumulate(epoch.prof);
  }
  if (!any) {
    std::fprintf(stderr,
                 "tgcrn_obs: %s holds no epoch \"prof\" blocks (run with "
                 "TGCRN_PROF=1 or train_model --prof)\n",
                 in->path.c_str());
  }
  return any;
}

void PrintShow(const ProfReport& report) {
  std::printf("isa: %s  threads: %lld  perf counters: %s\n",
              report.isa.empty() ? "unknown" : report.isa.c_str(),
              static_cast<long long>(report.threads),
              report.counters_available ? "yes" : "no");

  std::printf("\nkernel cost summary (exclusive = caller thread):\n");
  std::vector<std::string> columns = {"kernel",  "invocations", "excl_s",
                                      "worker_s", "gflop/s",    "flop/byte"};
  if (report.counters_available) {
    columns.push_back("ipc");
    columns.push_back("l1_miss");
    columns.push_back("llc_miss");
  }
  TablePrinter table(columns);
  for (const auto& k : report.kernels) {
    // Registered kernels the run never invoked (e.g. the sparse SpMM set
    // during a dense run) would render as all-zero roofline rows — noise,
    // not signal.
    if (k.invocations == 0) continue;
    std::vector<std::string> row = {
        k.name,
        TablePrinter::Num(static_cast<double>(k.invocations), 0),
        TablePrinter::Num(k.exclusive_seconds, 4),
        TablePrinter::Num(k.worker_seconds, 4),
        TablePrinter::Num(k.GFlops(), 2),
        TablePrinter::Num(k.ArithmeticIntensity(), 2)};
    if (report.counters_available) {
      row.push_back(TablePrinter::Num(k.Ipc(), 2));
      row.push_back(TablePrinter::Num(static_cast<double>(k.l1_misses), 0));
      row.push_back(TablePrinter::Num(static_cast<double>(k.llc_misses), 0));
    }
    table.AddRow(row);
  }
  table.Print();

  std::printf("\nattribution tree (inclusive / exclusive seconds):\n");
  std::vector<int> depth(report.nodes.size(), 0);
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const int64_t parent = report.nodes[i].parent;
    if (parent >= 0) depth[i] = depth[static_cast<size_t>(parent)] + 1;
    const auto& node = report.nodes[i];
    std::printf("%*s%-*s %10lld  %9.4f  %9.4f\n", depth[i] * 2, "",
                40 - depth[i] * 2, node.name.c_str(),
                static_cast<long long>(node.count), node.inclusive_seconds,
                node.exclusive_seconds);
  }
}

int ShowFile(const Args& args) {
  Input in;
  if (!Load(args.files[0], &in) || !ReduceToProfile(&in)) return 2;
  if (args.command == "show") {
    PrintShow(in.prof);
  } else {
    std::fputs(in.prof.ToCollapsed().c_str(), stdout);
  }
  return 0;
}

int Diff(const Args& args) {
  Input baseline;
  Input candidate;
  if (!Load(args.files[0], &baseline) || !Load(args.files[1], &candidate)) {
    return 2;
  }
  tgcrn::obs::ReportDiffResult result;
  if (baseline.is_report && candidate.is_report) {
    if (candidate.run.epochs.empty() && !candidate.run.has_summary) {
      std::fprintf(stderr,
                   "tgcrn_obs: %s holds no epoch or summary lines\n",
                   candidate.path.c_str());
      return 2;
    }
    result = tgcrn::obs::DiffReports(baseline.run, candidate.run, args.diff);
  } else {
    if (!ReduceToProfile(&baseline) || !ReduceToProfile(&candidate)) return 2;
    result =
        tgcrn::obs::DiffProfiles(baseline.prof, candidate.prof, args.diff);
  }

  TablePrinter table({"metric", "baseline", "candidate", "delta_pct",
                      "status"});
  for (const auto& row : result.rows) {
    const char* status = row.regressed ? "REGRESSED"
                         : row.gated   ? "ok"
                                       : "info";
    table.AddRow({row.metric, TablePrinter::Num(row.baseline, 4),
                  TablePrinter::Num(row.candidate, 4),
                  TablePrinter::Num(row.delta_pct, 2), status});
  }
  table.Print();
  if (!result.ok()) {
    const double time_pct = std::isnan(args.diff.max_time_regress_pct)
                                ? args.diff.max_regress_pct
                                : args.diff.max_time_regress_pct;
    std::fprintf(stderr,
                 "tgcrn_obs: %lld metric(s) regressed beyond %.6g%% "
                 "(timing rows: %.6g%%)\n",
                 static_cast<long long>(result.regressions),
                 args.diff.max_regress_pct, time_pct);
    return 1;
  }
  std::printf("tgcrn_obs: no regressions (%zu metrics compared)\n",
              result.rows.size());
  return 0;
}

// One round trip on a fresh connection: send `request` (one line), read
// one response line. False (with *error) on any socket trouble.
bool Call(const Args& args, const std::string& request, std::string* reply,
          std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(args.port));
  if (::inet_pton(AF_INET, args.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host " + args.host;
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = std::string("connect ") + args.host + ": " +
             std::strerror(errno);
    ::close(fd);
    return false;
  }
  const std::string line = request + "\n";
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t wrote =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(wrote);
  }
  reply->clear();
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    reply->append(buf, static_cast<size_t>(got));
    const size_t newline = reply->find('\n');
    if (newline != std::string::npos) {
      reply->resize(newline);
      ::close(fd);
      return true;
    }
  }
  *error = "connection closed before a full reply";
  ::close(fd);
  return false;
}

bool FetchStats(const Args& args, bool slow_view, Json* stats) {
  std::string request = "{\"op\":\"stats\"}";
  if (slow_view) request = "{\"op\":\"stats\",\"view\":\"slow\"}";
  std::string reply, error;
  if (!Call(args, request, &reply, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  if (!Json::Parse(reply, stats, &error)) {
    std::fprintf(stderr, "error: unparseable stats reply: %s\n",
                 error.c_str());
    return false;
  }
  const Json& ok = (*stats)["ok"];
  if (!ok.is_bool() || !ok.AsBool()) {
    std::fprintf(stderr, "error: server replied: %s\n", reply.c_str());
    return false;
  }
  return true;
}

void RenderStats(const Json& stats) {
  std::printf(
      "entities %lld  requests %lld  qps %.1f  p50 %lld us  p99 %lld us  "
      "uptime %.0f s\n",
      static_cast<long long>(stats.GetInt("entities")),
      static_cast<long long>(stats.GetInt("requests")),
      stats.GetDouble("qps"), static_cast<long long>(stats.GetInt("p50_us")),
      static_cast<long long>(stats.GetInt("p99_us")),
      stats.GetDouble("uptime_s"));
  if (stats.Has("cache")) {
    const Json& cache = stats["cache"];
    std::printf(
        "cache: hits %lld  misses %lld  evictions %lld  "
        "eviction age p50 %lld ticks\n",
        static_cast<long long>(cache.GetInt("hits")),
        static_cast<long long>(cache.GetInt("misses")),
        static_cast<long long>(cache.GetInt("evictions")),
        static_cast<long long>(cache.GetInt("eviction_age_p50_ticks")));
  }
  if (!stats.Has("stages")) {
    std::printf(
        "no stage telemetry (server not armed: set TGCRN_SERVE_ACCESS_LOG "
        "or TGCRN_SERVE_SLOW_US)\n");
    return;
  }
  const Json& stages = stats["stages"];
  TablePrinter table({"stage", "count", "p50_us", "p90_us", "p99_us"});
  for (int s = 0; s < tgcrn::serve::kServeStageCount; ++s) {
    const char* name = tgcrn::serve::ServeStageName(s);
    if (!stages.Has(name)) continue;
    const Json& stage = stages[name];
    table.AddRow({name, std::to_string(stage.GetInt("count")),
                  std::to_string(stage.GetInt("p50_us")),
                  std::to_string(stage.GetInt("p90_us")),
                  std::to_string(stage.GetInt("p99_us"))});
  }
  table.Print();
  if (stats.Has("slow_count")) {
    std::printf("slow requests kept: %lld (view with `slow`)\n",
                static_cast<long long>(stats.GetInt("slow_count")));
  }
}

int RenderSlow(const Json& stats) {
  if (!stats.Has("slow_requests")) {
    std::fprintf(stderr,
                 "no slow-request telemetry (server not armed: set "
                 "TGCRN_SERVE_SLOW_US)\n");
    return 1;
  }
  const Json& slow = stats["slow_requests"];
  std::printf("%zu slow request(s), oldest first:\n", slow.size());
  TablePrinter table({"id", "op", "status", "batch", "total_us", "read",
                      "parse", "batch_wait", "gather", "kernel", "scatter",
                      "serialize", "flush"});
  for (size_t i = 0; i < slow.size(); ++i) {
    const Json& entry = slow.at(i);
    const Json& us = entry["stage_us"];
    std::vector<std::string> row = {
        std::to_string(entry.GetInt("id")), entry.GetString("op"),
        entry.GetString("status"), std::to_string(entry.GetInt("batch")),
        std::to_string(entry.GetInt("total_us"))};
    for (int s = 0; s < tgcrn::serve::kServeStageCount; ++s) {
      row.push_back(
          std::to_string(us.GetInt(tgcrn::serve::ServeStageName(s))));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}

int Serve(const Args& args) {
  if (args.command == "slow") {
    Json stats;
    if (!FetchStats(args, /*slow_view=*/true, &stats)) return 1;
    return RenderSlow(stats);
  }
  int polls = 0;
  for (;;) {
    Json stats;
    if (!FetchStats(args, /*slow_view=*/false, &stats)) return 1;
    RenderStats(stats);
    if (args.command == "show") return 0;
    ++polls;
    if (args.count > 0 && polls >= args.count) return 0;
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(args.interval_s));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.command == "diff") return Diff(args);
  if (args.server) return Serve(args);
  return ShowFile(args);
}
