// Copyright 2026 TGCRN Reproduction Authors
// Model-agnostic training/evaluation harness implementing the paper's
// recipe (Section IV-A4): Adam with L2 penalty 1e-4, initial LR 1e-3 with
// multi-step decay 0.3 at {5,20,40,70,90}, batch 16, early stopping with
// patience, best-weights restoration, and per-horizon test metrics computed
// in the original (inverse-transformed) data space.
#ifndef TGCRN_CORE_TRAINER_H_
#define TGCRN_CORE_TRAINER_H_

#include <string>
#include <vector>

#include "common/env.h"
#include "core/forecast_model.h"
#include "data/dataset.h"
#include "metrics/metrics.h"
#include "obs/health.h"
#include "obs/prof.h"
#include "obs/report.h"

namespace tgcrn {
namespace core {

struct TrainConfig {
  int64_t epochs = 8;
  int64_t batch_size = 16;
  float lr = 1e-3f;
  float weight_decay = 1e-4f;
  std::vector<int64_t> lr_milestones = {5, 20, 40, 70, 90};
  float lr_gamma = 0.3f;
  float clip_norm = 5.0f;
  int64_t patience = 15;
  uint64_t seed = 99;
  // Caps the number of training batches per epoch (0 = no cap); used by the
  // bench harness to keep wall-clock budgets on one CPU core.
  int64_t max_batches_per_epoch = 0;
  // Scheduled sampling (curriculum learning a la DCRNN): the decoder's
  // teacher-forcing probability decays with the inverse sigmoid
  // tau / (tau + exp(step / tau)) over global training steps. 0 disables.
  double scheduled_sampling_tau = 0.0;
  // Learned-graph sparsity applied to the model before training: >= 0
  // calls ForecastModel::SetGraphTopK (> 0 = top-k CSR path, 0 = dense);
  // < 0 leaves the model as constructed. Defaults from the
  // TGCRN_GRAPH_TOPK env var (unset or invalid => -1), so any training
  // entry point gains the sparse path without code changes.
  int64_t graph_topk = common::EnvInt("TGCRN_GRAPH_TOPK", 0, 1'000'000, -1);
  // Parallel width for the tensor kernels during this run: > 0 sets the
  // global pool via common::SetNumThreads (1 = exact legacy serial
  // execution), 0 leaves the current global setting (TGCRN_NUM_THREADS env
  // var or hardware concurrency) untouched. Results are bitwise identical
  // at every thread count.
  int num_threads = 0;
  bool verbose = true;
  metrics::MetricsOptions metric_options;
  // When non-empty, one JSON object per epoch is appended to this file as
  // training proceeds (tail-able JSONL) and a final summary object is
  // appended after test evaluation. The same data is always available in
  // TrainResult::report regardless of this setting.
  std::string report_path;
  // Training-health monitor (obs/health.h): per-module parameter/gradient
  // statistics, activation taps, learned-graph diagnostics, and the
  // non-finite-gradient sentinel. Defaults from TGCRN_HEALTH* env vars, so
  // any training entry point gains the monitor without code changes.
  // Disabled ⇒ the training loop does zero health work per step.
  obs::HealthOptions health = obs::HealthOptions::FromEnv();
  // Kernel-cost profiler (obs/prof.h): when enabled, every epoch JSONL
  // line gains a "prof" object — that epoch's attribution-tree delta with
  // per-kernel invocation counts, analytic GFLOP/s, and (where perf_event
  // is available) IPC. Defaults from TGCRN_PROF{,_COUNTERS} env vars.
  // Disabled ⇒ one relaxed load per span, nothing else.
  obs::ProfOptions prof = obs::ProfOptions::FromEnv();
};

struct TrainResult {
  std::vector<metrics::Metrics> per_horizon;  // test metrics per step
  metrics::Metrics average;                   // mean over horizons
  double seconds_per_epoch = 0.0;
  double total_seconds = 0.0;
  int64_t num_parameters = 0;
  int64_t epochs_run = 0;
  int num_threads = 1;  // parallel width the run actually used
  std::vector<double> val_mae_history;
  std::vector<double> train_loss_history;
  // Structured per-epoch record (losses, LR, gradient norms, wall-clock
  // phase breakdown) plus the final test metrics; see obs/report.h.
  obs::RunReport report;
};

// Trains `model` on the dataset's train split, early-stops on validation
// MAE, restores the best weights, and evaluates on the test split.
TrainResult TrainAndEvaluate(ForecastModel* model,
                             const data::ForecastDataset& dataset,
                             const TrainConfig& config);

// Evaluates (no training) on a split; predictions are inverse-transformed
// before metric computation.
std::vector<metrics::Metrics> EvaluateModel(
    ForecastModel* model, const data::ForecastDataset& dataset,
    data::ForecastDataset::Split split,
    const metrics::MetricsOptions& options, int64_t batch_size = 16);

}  // namespace core
}  // namespace tgcrn

#endif  // TGCRN_CORE_TRAINER_H_
