// The two training workloads (train-metro, train-city-topk) and the traced
// training loop shared by every traced run.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "autograd/ops.h"
#include "common/thread_pool.h"
#include "datagen/metro_sim.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "bench.h"

namespace perfbench {

using tgcrn::Rng;
using tgcrn::Tensor;
namespace ag = tgcrn::ag;
namespace core = tgcrn::core;
namespace data = tgcrn::data;
using Split = data::ForecastDataset::Split;

const TrainSpec& MetroSpec() {
  // bench_common's default scale: HZMetro stand-in at N=20, 28 days of
  // 15-minute slots; TGCRN hidden 16 with d_nu = d_tau = 6 (the 1:1
  // small-embedding row); batch 16, 45 batches per epoch.
  static const TrainSpec spec{"train-metro", 20, 28, 72, 320.0, 0, 4, 4,
                              16, 2, 6, 6, 0,
                              16, 45, 2, 6e-3f, {9, 12}};
  return spec;
}

const TrainSpec& CitySpec() {
  // bench_table8_cost's sparse N-sweep row: a neighbor-limited metro
  // stand-in, one week of hourly slots, one GCGRU layer, top-k = 16.
  static const TrainSpec spec{"train-city-topk", 2048, 7, 18, 40.0, 8, 4, 2,
                              8, 1, 8, 4, 16,
                              4, 4, 2, 1e-3f, {5, 20, 40, 70, 90}};
  return spec;
}

std::unique_ptr<data::ForecastDataset> MakeDataset(const TrainSpec& spec,
                                                   uint64_t seed) {
  tgcrn::datagen::MetroSimConfig sim;
  sim.num_stations = spec.nodes;
  sim.num_days = spec.days;
  sim.steps_per_day = spec.steps_per_day;
  sim.seed = 1000 + seed;
  sim.target_mean_inflow = spec.mean_inflow;
  sim.keep_od_ground_truth = false;
  sim.max_od_pairs_per_station = spec.od_pairs_per_station;
  auto out = tgcrn::datagen::SimulateMetro(sim);
  data::ForecastDataset::Options options;
  options.input_steps = spec.input_steps;
  options.output_steps = spec.output_steps;
  return std::make_unique<data::ForecastDataset>(std::move(out.data),
                                                 options);
}

core::TGCRNConfig ModelConfig(const TrainSpec& spec) {
  core::TGCRNConfig config;
  config.num_nodes = spec.nodes;
  config.input_dim = 2;
  config.output_dim = 2;
  config.horizon = spec.output_steps;
  config.hidden_dim = spec.hidden;
  config.num_layers = spec.layers;
  config.node_embed_dim = spec.node_embed;
  config.time_embed_dim = spec.time_embed;
  config.steps_per_day = spec.steps_per_day;
  config.graph_topk = spec.topk;
  return config;
}

std::unique_ptr<core::TGCRN> MakeModel(const TrainSpec& spec, uint64_t seed) {
  Rng rng(2000 + seed);
  return std::make_unique<core::TGCRN>(ModelConfig(spec), &rng);
}

core::TrainConfig MakeTrainConfig(const TrainSpec& spec, uint64_t seed,
                                  int threads) {
  core::TrainConfig config;
  config.epochs = spec.epochs_per_call;
  config.batch_size = spec.batch_size;
  config.max_batches_per_epoch = spec.max_batches;
  config.lr = spec.lr;
  config.lr_milestones = spec.lr_milestones;
  config.patience = spec.epochs_per_call + 1;
  config.seed = 3000 + seed;
  config.graph_topk = spec.topk;
  config.num_threads = threads;
  config.verbose = false;
  config.health.enabled = false;
  config.prof.enabled = false;
  return config;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// FNV-1a over the bit patterns of a sequence of doubles.
std::string Digest(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

std::vector<double> Trajectory(const std::vector<double>& train_loss,
                               const std::vector<double>& val_mae) {
  std::vector<double> all = train_loss;
  all.insert(all.end(), val_mae.begin(), val_mae.end());
  return all;
}

int64_t TrainWindowsPerEpoch(const TrainSpec& spec,
                             const data::ForecastDataset& dataset) {
  int64_t windows = 0, batches = 0;
  for (const auto& ids :
       dataset.EpochBatches(Split::kTrain, spec.batch_size, nullptr)) {
    if (batches++ == spec.max_batches) break;
    windows += static_cast<int64_t>(ids.size());
  }
  return windows;
}

// The fixed-seed arithmetic check: a short training run of the workload's
// model family at a reduced size whose loss trajectory is recorded per
// ISA in golden.json. Bitwise reproducibility at a fixed ISA is the
// repository's contract, so any change of arithmetic shows up here.
std::string GoldenDigest(const TrainSpec& spec, int threads) {
  TrainSpec small = spec;
  if (spec.nodes > 64) small.nodes = 256;
  small.days = 7;
  small.max_batches = 2;
  small.epochs_per_call = 1;
  auto dataset = MakeDataset(small, 0);
  auto model = MakeModel(small, 0);
  const core::TrainResult r =
      core::TrainAndEvaluate(model.get(), *dataset,
                             MakeTrainConfig(small, 0, threads));
  std::vector<double> all =
      Trajectory(r.train_loss_history, r.val_mae_history);
  all.push_back(r.average.mae);
  return Digest(all);
}

}  // namespace

TracedTraining TracedTrainAndEvaluate(core::ForecastModel* model,
                                      const data::ForecastDataset& dataset,
                                      const core::TrainConfig& config,
                                      SpanLog* log) {
  // Mirrors core::TrainAndEvaluate call for call (health monitor and
  // profiler disabled, no scheduled sampling), so the loss trajectory is
  // bitwise the untraced one; the caller checks that it is.
  TracedTraining t;
  auto& registry = tgcrn::obs::Registry::Global();
  auto* allocations = registry.GetCounter("tensor.allocations");
  auto* pool_hit = registry.GetCounter("tensor.pool_hit");
  auto* pool_miss = registry.GetCounter("tensor.pool_miss");
  auto* backward_ops = registry.GetCounter("autograd.backward_ops");

  if (config.graph_topk >= 0) model->SetGraphTopK(config.graph_topk);
  if (config.num_threads > 0) tgcrn::common::SetNumThreads(config.num_threads);
  Rng rng(config.seed);
  tgcrn::optim::Adam adam(model->Parameters(), config.lr, 0.9f, 0.999f,
                          1e-8f, config.weight_decay);
  tgcrn::optim::MultiStepLR scheduler(&adam, config.lr_milestones,
                                      config.lr_gamma);
  tgcrn::optim::EarlyStopper stopper(config.patience);
  std::vector<Tensor> best;
  model->SetTraining(true);

  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    ScopedSpan epoch_span(log, "train", "epoch");
    const int64_t epoch_start = NowNs();
    auto batches = dataset.EpochBatches(Split::kTrain, config.batch_size, &rng);
    if (config.max_batches_per_epoch > 0 &&
        static_cast<int64_t>(batches.size()) > config.max_batches_per_epoch) {
      batches.resize(config.max_batches_per_epoch);
    }
    double loss_sum = 0.0;
    for (const auto& ids : batches) {
      ScopedSpan step_span(log, "train", "step");
      const auto pool = tgcrn::common::GetPoolStats();
      const int64_t allocs0 = allocations->Value();
      const int64_t hit0 = pool_hit->Value(), miss0 = pool_miss->Value();
      const int64_t bops0 = backward_ops->Value();
      data::Batch batch;
      {
        ScopedSpan s(log, "data", "make_batch");
        batch = dataset.MakeBatch(Split::kTrain, ids);
      }
      model->ZeroGrad();
      ag::StepArenaScope arena_step;
      ag::Variable loss;
      {
        ScopedSpan s(log, "core", "forward");
        ag::Variable pred = model->Forward(batch);
        loss = ag::MaeLoss(pred, ag::Variable(batch.y_scaled));
        const float aux_weight = model->auxiliary_weight();
        if (aux_weight > 0.0f) {
          ag::Variable aux = model->AuxiliaryLoss(batch, &rng);
          if (aux.defined()) {
            loss = ag::Add(loss, ag::MulScalar(aux, aux_weight));
          }
        }
      }
      {
        ScopedSpan s(log, "autograd", "backward");
        loss.Backward();
      }
      {
        ScopedSpan s(log, "optim", "clip");
        tgcrn::optim::ClipGradNorm(adam.params(), config.clip_norm);
      }
      {
        ScopedSpan s(log, "optim", "adam");
        adam.Step();
      }
      loss_sum += loss.value().item();
      const auto pool_after = tgcrn::common::GetPoolStats();
      ++t.steps;
      t.parallel_for_calls += static_cast<double>(
          pool_after.parallel_for_calls - pool.parallel_for_calls);
      t.serial_runs +=
          static_cast<double>(pool_after.serial_runs - pool.serial_runs);
      t.tensor_allocations += static_cast<double>(allocations->Value() - allocs0);
      t.pool_hits += static_cast<double>(pool_hit->Value() - hit0);
      t.pool_misses += static_cast<double>(pool_miss->Value() - miss0);
      t.backward_ops += static_cast<double>(backward_ops->Value() - bops0);
    }
    t.train_loss.push_back(batches.empty()
                               ? 0.0
                               : loss_sum / static_cast<double>(batches.size()));
    double val_mae = 0.0;
    {
      // core::TrainAndEvaluate's validation MAE, through public calls.
      ScopedSpan s(log, "core", "eval");
      model->SetTraining(false);
      std::vector<Tensor> preds, targets;
      {
        ag::NoGradGuard no_grad;
        for (const auto& ids :
             dataset.EpochBatches(Split::kVal, config.batch_size, nullptr)) {
          const data::Batch batch = dataset.MakeBatch(Split::kVal, ids);
          ag::Variable pred = model->Forward(batch);
          preds.push_back(dataset.scaler().InverseTransform(pred.value()));
          targets.push_back(batch.y);
        }
      }
      model->SetTraining(true);
      val_mae = tgcrn::metrics::Evaluate(Tensor::Concat(preds, 0),
                                         Tensor::Concat(targets, 0),
                                         config.metric_options)
                    .mae;
    }
    t.val_mae.push_back(val_mae);
    t.epoch_s.push_back(Seconds(epoch_start, NowNs()));
    scheduler.Step(epoch);
    if (stopper.Update(static_cast<float>(val_mae))) {
      best.clear();
      for (const auto& p : model->Parameters()) best.push_back(p.value().Clone());
    }
    if (stopper.ShouldStop()) break;
  }
  if (!best.empty()) {
    auto params = model->Parameters();
    for (size_t i = 0; i < params.size(); ++i) params[i].SetValue(best[i].Clone());
  }
  {
    ScopedSpan s(log, "core", "test_eval");
    core::EvaluateModel(model, dataset, Split::kTest, config.metric_options,
                        config.batch_size);
  }
  return t;
}

void PutTrainingLayerMetrics(const TracedTraining& t, const SpanLog& log,
                             Outcome* out) {
  const double steps = static_cast<double>(std::max<int64_t>(t.steps, 1));
  out->Put("common.parallel_for_calls_per_step", t.parallel_for_calls / steps,
           "count", t.steps);
  out->Put("common.serial_run_share",
           t.parallel_for_calls > 0 ? t.serial_runs / t.parallel_for_calls : 0.0,
           "ratio", t.steps);
  out->Put("tensor.allocations_per_step", t.tensor_allocations / steps,
           "count", t.steps);
  const double acquires = t.pool_hits + t.pool_misses;
  out->Put("tensor.pool_hit_ratio", acquires > 0 ? t.pool_hits / acquires : 0.0,
           "ratio", t.steps);
  out->Put("autograd.backward_ops_per_step", t.backward_ops / steps, "count",
           t.steps);
  const auto put_ms = [&](const char* metric, const char* layer,
                          const char* name) {
    const std::vector<double> d = log.Durations(layer, name);
    out->Put(metric, Median(d) * 1e3, "ms", static_cast<int64_t>(d.size()));
  };
  put_ms("data.make_batch_ms", "data", "make_batch");
  put_ms("core.forward_ms", "core", "forward");
  put_ms("autograd.backward_ms", "autograd", "backward");
  put_ms("optim.clip_ms", "optim", "clip");
  put_ms("optim.adam_ms", "optim", "adam");
  const std::vector<double> eval = log.Durations("core", "eval");
  out->Put("core.eval_s", Median(eval), "s", static_cast<int64_t>(eval.size()));
}

void PutSelfTimes(const SpanLog& log, Outcome* out) {
  const auto self = log.SelfSeconds();
  for (const char* layer :
       {"train", "data", "core", "autograd", "optim", "serve", "loadgen"}) {
    const auto it = self.find(layer);
    out->Put(std::string("self.") + layer + "_s",
             it == self.end() ? 0.0 : it->second, "s",
             static_cast<int64_t>(log.spans().size()));
  }
}

void RunTrainWorkload(const TrainSpec& spec, const Options& options,
                      Outcome* out) {
  // Set-up: data generation and model build, repeated; the median is
  // setup_s, the last repetition's data and model are the ones trained.
  std::vector<double> setup_s;
  std::unique_ptr<data::ForecastDataset> dataset;
  std::unique_ptr<core::TGCRN> model;
  const int setup_reps = options.trace ? 1 : 5;
  for (int i = 0; i < setup_reps; ++i) {
    const int64_t t0 = NowNs();
    dataset = MakeDataset(spec, options.seed);
    model = MakeModel(spec, options.seed);
    setup_s.push_back(Seconds(t0, NowNs()));
  }
  out->golden = GoldenDigest(spec, options.threads);
  const core::TrainConfig config =
      MakeTrainConfig(spec, options.seed, options.threads);
  const int64_t windows = TrainWindowsPerEpoch(spec, *dataset);

  // Measured calls: the same fixed-epoch TrainAndEvaluate on a freshly
  // built model, repeated until the time is up. Each repetition must
  // reproduce the first one's loss trajectory bit for bit.
  std::vector<double> epoch_s, windows_per_s;
  std::string first_digest;
  std::vector<double> first_train_loss, first_val_mae;
  const int64_t start = NowNs();
  int calls = 0;
  do {
    if (calls > 0) model = MakeModel(spec, options.seed);
    const core::TrainResult r =
        core::TrainAndEvaluate(model.get(), *dataset, config);
    ++calls;
    const std::string digest =
        Digest(Trajectory(r.train_loss_history, r.val_mae_history));
    if (first_digest.empty()) {
      first_digest = digest;
      first_train_loss = r.train_loss_history;
      first_val_mae = r.val_mae_history;
    }
    for (size_t e = 0; e < r.report.epochs.size(); ++e) {
      const auto& epoch = r.report.epochs[e];
      ++out->attempted;
      epoch_s.push_back(epoch.seconds);
      double step_s = 0.0;
      for (const auto& [phase, s] : epoch.phase_seconds) {
        if (phase != tgcrn::obs::kPhaseEval) step_s += s;
      }
      windows_per_s.push_back(static_cast<double>(windows) / step_s);
      if (!std::isfinite(epoch.train_loss) || !std::isfinite(epoch.val_mae)) {
        out->Fail(spec.name + std::string(": non-finite loss at epoch ") +
                  std::to_string(e));
      } else if (digest != first_digest) {
        out->Fail(spec.name + std::string(": call ") + std::to_string(calls) +
                  " did not reproduce the loss trajectory");
      }
    }
    if (!std::isfinite(r.average.mae)) out->Fail("non-finite test MAE");
    if (options.trace) break;  // one untraced call is the overhead baseline
  } while (Seconds(start, NowNs()) < options.seconds);
  out->notes.push_back("loss trajectory digest " + first_digest + " over " +
                       std::to_string(calls) + " call(s)");

  if (!options.trace) {
    out->Put("setup_s", Median(setup_s), "s", setup_reps);
    out->Put("peak_rss_mb", PeakRssMb(), "MB", 1);
    const auto n = static_cast<int64_t>(epoch_s.size());
    out->Put("p50_ms", Median(epoch_s) * 1e3, "ms", n);
    out->Put("throughput_per_s", Median(windows_per_s), "1/s", n);
    return;
  }

  // Traced run: the same call sequence with spans, which must reproduce
  // the untraced trajectory, then the layer probes at this shape.
  SpanLog log;
  model = MakeModel(spec, options.seed);
  const TracedTraining traced =
      TracedTrainAndEvaluate(model.get(), *dataset, config, &log);
  out->attempted += static_cast<int64_t>(traced.epoch_s.size());
  if (traced.train_loss != first_train_loss || traced.val_mae != first_val_mae) {
    out->Fail(spec.name + std::string(": traced loop diverged from "
                                      "TrainAndEvaluate"));
  }
  out->Put("trace.overhead_share",
           Median(traced.epoch_s) / Median(epoch_s) - 1.0, "ratio",
           static_cast<int64_t>(traced.epoch_s.size()));
  PutTrainingLayerMetrics(traced, log, out);
  RunLayerProbes(spec, options.seed, out);
  std::vector<double> latency_s, late_s;
  RunServeProbes(spec, options.seed, spec.nodes > 64 ? 8 : 256, out,
                 &latency_s, &late_s, &log);
  PutOpenLoopLayerMetrics(latency_s, late_s, out);
  PutSelfTimes(log, out);
  if (!options.trace_path.empty() && !log.WriteJsonl(options.trace_path)) {
    out->Fail("cannot write " + options.trace_path);
  }
}

}  // namespace perfbench
