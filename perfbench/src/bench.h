// Shared definitions of the benchmark program: workload shapes, the result
// a run accumulates, and the entry points of each workload and of the
// per-layer probes.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tgcrn.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

// One TGCRN training configuration: metro-simulator data, model shape and
// training recipe. The serving workload reuses the train-metro shape.
struct TrainSpec {
  const char* name;
  // Data (datagen::SimulateMetro + ForecastDataset).
  int64_t nodes;
  int64_t days;
  int64_t steps_per_day;
  double mean_inflow;
  int64_t od_pairs_per_station;  // 0 = dense OD model
  int64_t input_steps;
  int64_t output_steps;
  // Model (core::TGCRNConfig).
  int64_t hidden;
  int64_t layers;
  int64_t node_embed;
  int64_t time_embed;
  int64_t topk;  // 0 = dense learned graph
  // Training (core::TrainConfig).
  int64_t batch_size;
  int64_t max_batches;
  int64_t epochs_per_call;
  float lr;
  std::vector<int64_t> lr_milestones;
};

// Table VIII's "TGCRN (small emb)" row on the HZMetro stand-in.
const TrainSpec& MetroSpec();
// The sparse N-sweep row at N=2048, graph_topk=16.
const TrainSpec& CitySpec();

std::unique_ptr<tgcrn::data::ForecastDataset> MakeDataset(const TrainSpec& spec,
                                                   uint64_t seed);
tgcrn::core::TGCRNConfig ModelConfig(const TrainSpec& spec);
std::unique_ptr<tgcrn::core::TGCRN> MakeModel(const TrainSpec& spec, uint64_t seed);
// Early stopping cannot trigger: patience exceeds the epoch count.
tgcrn::core::TrainConfig MakeTrainConfig(const TrainSpec& spec, uint64_t seed,
                                  int threads);

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // span JSONL written here by the traced run
  int threads = 1;         // kernel pool width
};

struct Outcome {
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // the first few failure reasons
  std::string golden;               // digest of the fixed-seed check
  std::vector<std::string> notes;   // phase summaries for the log

  void Put(const std::string& name, double value, const std::string& unit,
           int64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

// Times fn() repeatedly: at least `min_reps` times and until `budget_s`
// has elapsed. Returns the median seconds per call; *reps gets the count.
template <typename Fn>
double MedianSeconds(Fn&& fn, int min_reps, double budget_s, int64_t* reps) {
  std::vector<double> times;
  const int64_t start = NowNs();
  for (;;) {
    const int64_t t0 = NowNs();
    fn();
    const int64_t t1 = NowNs();
    times.push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (static_cast<int>(times.size()) >= min_reps &&
        static_cast<double>(t1 - start) * 1e-9 >= budget_s) {
      break;
    }
  }
  if (reps != nullptr) *reps = static_cast<int64_t>(times.size());
  return Median(std::move(times));
}

// Workloads. Each fills the end-to-end metrics (trace off) or the
// per-layer metrics (trace on) and the attempted/failed counts.
void RunTrainWorkload(const TrainSpec& spec, const Options& options,
                      Outcome* out);
void RunServeWorkload(const Options& options, Outcome* out);

// Per-training-step layer numbers of the traced training loop, which
// issues the same public calls in the same order as
// core::TrainAndEvaluate.
struct TracedTraining {
  std::vector<double> train_loss;
  std::vector<double> val_mae;
  std::vector<double> epoch_s;
  int64_t steps = 0;
  double parallel_for_calls = 0.0;
  double serial_runs = 0.0;
  double tensor_allocations = 0.0;
  double pool_hits = 0.0;
  double pool_misses = 0.0;
  double backward_ops = 0.0;
};
TracedTraining TracedTrainAndEvaluate(
    tgcrn::core::ForecastModel* model,
    const tgcrn::data::ForecastDataset& dataset,
    const tgcrn::core::TrainConfig& config, SpanLog* log);
// Layer metrics of a traced training run (spans + counters).
void PutTrainingLayerMetrics(const TracedTraining& t, const SpanLog& log,
                             Outcome* out);

// Micro-probes of single layers at a model shape (common, graph, tensor,
// core, autograd), each timed through the layer's public functions.
void RunLayerProbes(const TrainSpec& spec, uint64_t seed, Outcome* out);
// Serving-layer probes at a model shape: in-process session replay,
// encoder/decoder at widths 1 and batch_max, and the idle TCP overhead.
// The latencies and lateness of its short spaced TCP phase go to
// `latency_s` and `late_s` unless those pointers are null.
void RunServeProbes(const TrainSpec& spec, uint64_t seed, int64_t requests,
                    Outcome* out, std::vector<double>* latency_s,
                    std::vector<double>* late_s, SpanLog* log);
// loadgen.latency_p99_ms and loadgen.late_p99_ms of an open-loop phase.
void PutOpenLoopLayerMetrics(const std::vector<double>& latency_s,
                             const std::vector<double>& late_s, Outcome* out);

// Self time per layer of every span in `log`, as self.<layer>_s metrics.
void PutSelfTimes(const SpanLog& log, Outcome* out);

double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
