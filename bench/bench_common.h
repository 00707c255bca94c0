// Copyright 2026 TGCRN Reproduction Authors
// Shared infrastructure for the benchmark harness. Each bench binary
// regenerates one table or figure of the paper: it builds the synthetic
// stand-in dataset, trains the models involved, and prints the measured
// numbers next to the paper's reported numbers so the *shape* of the result
// (ranking, rough factors, crossovers) can be checked at a glance. Every
// bench also writes its rows to bench_results/<name>.csv.
//
// Scale control: TGCRN_BENCH_SCALE = quick | default | full. "quick" is a
// smoke-test scale (~seconds per model), "default" finishes the whole suite
// in tens of minutes on one CPU core, "full" trains longer for tighter
// numbers.
#ifndef TGCRN_BENCH_BENCH_COMMON_H_
#define TGCRN_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/forecast_model.h"
#include "core/tgcrn.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "datagen/demand_sim.h"
#include "datagen/electricity_sim.h"
#include "datagen/metro_sim.h"
#include "metrics/metrics.h"

namespace tgcrn {
namespace bench {

struct Scale {
  // Metro (Table IV / VII / VIII / Figs 8-12).
  int64_t hz_nodes = 20;
  int64_t sh_nodes = 28;
  int64_t metro_days = 28;
  // Demand (Table V).
  int64_t bike_zones = 20;
  int64_t taxi_zones = 24;
  int64_t demand_days = 42;
  // Electricity (Table VI).
  int64_t elec_clients = 24;
  int64_t elec_days = 90;
  // Training. The paper trains ~100 epochs at LR 1e-3 with decay 0.3 at
  // {5,20,40,70,90}; the reduced scales keep total-step x LR roughly
  // constant by raising the LR and shrinking the milestone schedule
  // proportionally ("full" restores the paper recipe).
  int64_t epochs = 14;
  int64_t max_batches_per_epoch = 45;
  int64_t batch_size = 16;
  float lr = 6e-3f;
  std::vector<int64_t> lr_milestones = {9, 12};
  // Model sizes.
  int64_t hidden_dim = 16;
  int64_t node_embed_dim = 12;
  int64_t time_embed_dim = 8;
  std::string name = "default";
};

// Reads TGCRN_BENCH_SCALE from the environment.
Scale GetScale();

// A ready-to-train dataset with the side information baselines need.
struct DatasetBundle {
  std::string name;
  std::unique_ptr<data::ForecastDataset> dataset;
  Tensor distances;     // [N, N]; zero tensor when not meaningful
  Tensor train_series;  // [N, T_train] channel-0 training series
  int64_t num_nodes = 0;
  int64_t num_features = 0;
  int64_t steps_per_day = 0;
  int64_t minutes_per_step = 0;
  // Retained simulator ground truth (metro only; empty otherwise).
  std::vector<Tensor> od_ground_truth;
  std::vector<datagen::AreaType> area_types;
  std::vector<int64_t> slot_of_day;  // full timeline calendar
  std::vector<int64_t> day_of_week;
  Tensor raw_values;  // [T, N, d] unscaled, full timeline
};

// Builders for the five dataset stand-ins.
DatasetBundle MakeHzSim(const Scale& scale, bool keep_od = false);
DatasetBundle MakeShSim(const Scale& scale);
DatasetBundle MakeBikeSim(const Scale& scale);
DatasetBundle MakeTaxiSim(const Scale& scale);
DatasetBundle MakeElectricitySim(const Scale& scale);

// Model construction by table row name. Supported names: TGCRN, FC-LSTM,
// DCRNN, GraphWaveNet, AGCRN, PVCGN, CCRNN, GTS, ESG, Informer,
// Crossformer.
std::unique_ptr<core::ForecastModel> MakeModel(const std::string& name,
                                               const DatasetBundle& bundle,
                                               const Scale& scale,
                                               uint64_t seed);

// Per-model learning-rate multiplier relative to scale.lr. The original
// codebases train with very different LRs (transformers at 1e-4-5e-4, the
// recurrent graph family at 1e-3-1e-2); keeping their ratios preserves the
// comparison's faithfulness when the global schedule is compressed.
float LrMultiplier(const std::string& model_name);

// Trains and evaluates one neural model on a bundle with the shared recipe
// (scale.lr scaled by LrMultiplier(model->name())). When the
// TGCRN_BENCH_REPORT_DIR environment variable names a directory, the run's
// structured report (obs/report.h) is streamed there as
// <model>-<dataset>.jsonl.
core::TrainResult RunNeural(core::ForecastModel* model,
                            const DatasetBundle& bundle, const Scale& scale,
                            uint64_t seed = 99);

// Formats "measured (paper ref)" cells; ref < 0 renders as measured only.
std::string Cell(double measured, double paper_ref, int precision = 2);

// Writes the table and announces the CSV path.
void EmitTable(const std::string& bench_name, const TablePrinter& table);

// Appends one timing line for `label` to
// bench_results/history/<bench_name>_history.csv (header written on
// create): UTC timestamp, scale, threads, s/epoch, and the trainer's phase
// seconds. The growing file is the perf trajectory the regression gate
// (`tgcrn_obs diff`, docs/BENCHMARKS.md) diffs across commits.
void AppendCostHistory(const std::string& bench_name,
                       const std::string& label, const Scale& scale,
                       const core::TrainResult& result);

}  // namespace bench
}  // namespace tgcrn

#endif  // TGCRN_BENCH_BENCH_COMMON_H_
