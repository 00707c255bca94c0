// Copyright 2026 TGCRN Reproduction Authors
#include "bench_common.h"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baselines/agcrn.h"
#include "common/cpu_features.h"
#include "common/env.h"
#include "baselines/ccrnn.h"
#include "baselines/dcrnn.h"
#include "baselines/esg.h"
#include "baselines/fc_lstm.h"
#include "baselines/gts.h"
#include "baselines/gwnet.h"
#include "baselines/pvcgn.h"
#include "baselines/transformers.h"

namespace tgcrn {
namespace bench {

Scale GetScale() {
  Scale scale;
  const int level =
      common::EnvChoice("TGCRN_BENCH_SCALE", {"default", "quick", "full"}, 0);
  if (level == 1) {
    scale.name = "quick";
    scale.hz_nodes = 10;
    scale.sh_nodes = 12;
    scale.metro_days = 14;
    scale.bike_zones = 10;
    scale.taxi_zones = 12;
    scale.demand_days = 21;
    scale.elec_clients = 12;
    scale.elec_days = 42;
    scale.epochs = 3;
    scale.max_batches_per_epoch = 25;
    scale.hidden_dim = 12;
    scale.node_embed_dim = 8;
    scale.time_embed_dim = 6;
  } else if (level == 2) {
    scale.name = "full";
    scale.epochs = 40;
    scale.max_batches_per_epoch = 0;
    scale.lr = 1e-3f;
    scale.lr_milestones = {5, 20, 40, 70, 90};  // paper recipe
    scale.hidden_dim = 24;
    scale.node_embed_dim = 16;
    scale.time_embed_dim = 12;
  }
  return scale;
}

namespace {

// Extracts the channel-0 training series [N, T_train].
Tensor TrainSeries(const data::SpatioTemporalData& data,
                   double train_fraction) {
  const int64_t fit =
      static_cast<int64_t>(data.num_steps() * train_fraction);
  return data.values.Slice(2, 0, 1).Squeeze(2).Slice(0, 0, fit)
      .Transpose(0, 1);
}

DatasetBundle MakeMetro(const std::string& name, int64_t nodes,
                        const Scale& scale, uint64_t seed, bool keep_od) {
  datagen::MetroSimConfig config;
  config.num_stations = nodes;
  config.num_days = scale.metro_days;
  config.seed = seed;
  config.keep_od_ground_truth = keep_od;
  auto sim = datagen::SimulateMetro(config);

  DatasetBundle bundle;
  bundle.name = name;
  bundle.distances = sim.distances;
  bundle.train_series = TrainSeries(sim.data, 0.7);
  bundle.num_nodes = nodes;
  bundle.num_features = 2;
  bundle.steps_per_day = config.steps_per_day;
  bundle.minutes_per_step = 15;
  bundle.od_ground_truth = std::move(sim.od_ground_truth);
  bundle.area_types = std::move(sim.area_types);
  bundle.slot_of_day = sim.data.slot_of_day;
  bundle.day_of_week = sim.data.day_of_week;
  bundle.raw_values = sim.data.values;

  data::ForecastDataset::Options options;
  options.input_steps = 4;
  options.output_steps = 4;
  bundle.dataset = std::make_unique<data::ForecastDataset>(
      std::move(sim.data), options);
  return bundle;
}

}  // namespace

DatasetBundle MakeHzSim(const Scale& scale, bool keep_od) {
  return MakeMetro("HZMetro-sim", scale.hz_nodes, scale, /*seed=*/101,
                   keep_od);
}

DatasetBundle MakeShSim(const Scale& scale) {
  return MakeMetro("SHMetro-sim", scale.sh_nodes, scale, /*seed=*/202,
                   /*keep_od=*/false);
}

namespace {

DatasetBundle MakeDemand(const std::string& name, int64_t zones,
                         double mean_demand, const Scale& scale,
                         uint64_t seed) {
  datagen::DemandSimConfig config;
  config.num_zones = zones;
  config.num_days = scale.demand_days;
  config.seed = seed;
  config.target_mean_demand = mean_demand;
  auto sim = datagen::SimulateDemand(config);

  DatasetBundle bundle;
  bundle.name = name;
  bundle.distances = sim.distances;
  bundle.train_series = TrainSeries(sim.data, 0.7);
  bundle.num_nodes = zones;
  bundle.num_features = 2;
  bundle.steps_per_day = config.steps_per_day;
  bundle.minutes_per_step = 30;
  bundle.slot_of_day = sim.data.slot_of_day;
  bundle.day_of_week = sim.data.day_of_week;
  bundle.raw_values = sim.data.values;

  data::ForecastDataset::Options options;
  options.input_steps = 12;
  options.output_steps = 12;
  bundle.dataset = std::make_unique<data::ForecastDataset>(
      std::move(sim.data), options);
  return bundle;
}

}  // namespace

DatasetBundle MakeBikeSim(const Scale& scale) {
  return MakeDemand("NYC-Bike-sim", scale.bike_zones, 6.0, scale, 303);
}

DatasetBundle MakeTaxiSim(const Scale& scale) {
  return MakeDemand("NYC-Taxi-sim", scale.taxi_zones, 20.0, scale, 404);
}

DatasetBundle MakeElectricitySim(const Scale& scale) {
  datagen::ElectricitySimConfig config;
  config.num_clients = scale.elec_clients;
  config.num_days = scale.elec_days;
  config.seed = 505;
  auto sim = datagen::SimulateElectricity(config);

  DatasetBundle bundle;
  bundle.name = "Electricity-sim";
  bundle.distances = Tensor::Zeros({config.num_clients, config.num_clients});
  bundle.train_series = TrainSeries(sim.data, 0.7);
  bundle.num_nodes = config.num_clients;
  bundle.num_features = 1;
  bundle.steps_per_day = config.steps_per_day;
  bundle.minutes_per_step = 60;
  bundle.slot_of_day = sim.data.slot_of_day;
  bundle.day_of_week = sim.data.day_of_week;
  bundle.raw_values = sim.data.values;

  data::ForecastDataset::Options options;
  options.input_steps = 12;
  options.output_steps = 12;
  bundle.dataset = std::make_unique<data::ForecastDataset>(
      std::move(sim.data), options);
  return bundle;
}

std::unique_ptr<core::ForecastModel> MakeModel(const std::string& name,
                                               const DatasetBundle& bundle,
                                               const Scale& scale,
                                               uint64_t seed) {
  Rng rng(seed);
  const int64_t n = bundle.num_nodes;
  const int64_t d = bundle.num_features;
  const int64_t p = bundle.dataset->options().input_steps;
  const int64_t q = bundle.dataset->options().output_steps;

  if (name == "TGCRN") {
    core::TGCRNConfig config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.hidden_dim = scale.hidden_dim;
    config.node_embed_dim = scale.node_embed_dim;
    config.time_embed_dim = scale.time_embed_dim;
    config.steps_per_day = bundle.steps_per_day;
    return std::make_unique<core::TGCRN>(config, &rng);
  }
  if (name == "FC-LSTM") {
    baselines::FcLstm::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.hidden_dim = 4 * scale.hidden_dim;
    return std::make_unique<baselines::FcLstm>(config, &rng);
  }
  if (name == "DCRNN") {
    baselines::Dcrnn::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.hidden_dim = scale.hidden_dim;
    return std::make_unique<baselines::Dcrnn>(config, bundle.distances,
                                              &rng);
  }
  if (name == "GraphWaveNet") {
    baselines::GraphWaveNet::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.channels = scale.hidden_dim;
    config.skip_channels = 2 * scale.hidden_dim;
    config.node_embed_dim = scale.node_embed_dim;
    return std::make_unique<baselines::GraphWaveNet>(config, &rng);
  }
  if (name == "AGCRN") {
    baselines::Agcrn::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.hidden_dim = scale.hidden_dim;
    config.node_embed_dim = scale.node_embed_dim;
    return std::make_unique<baselines::Agcrn>(config, &rng);
  }
  if (name == "PVCGN") {
    baselines::Pvcgn::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.hidden_dim = scale.hidden_dim + scale.hidden_dim / 2;
    return std::make_unique<baselines::Pvcgn>(config, bundle.distances,
                                              bundle.train_series, &rng);
  }
  if (name == "CCRNN") {
    baselines::Ccrnn::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.hidden_dim = scale.hidden_dim;
    return std::make_unique<baselines::Ccrnn>(config, bundle.train_series,
                                              &rng);
  }
  if (name == "GTS") {
    baselines::Gts::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.hidden_dim = scale.hidden_dim;
    // Recompute profile features from the stored raw timeline.
    data::SpatioTemporalData data;
    data.values = bundle.raw_values;
    data.slot_of_day = bundle.slot_of_day;
    data.day_of_week = bundle.day_of_week;
    data.steps_per_day = bundle.steps_per_day;
    const int64_t fit = static_cast<int64_t>(data.num_steps() * 0.7);
    Tensor features =
        baselines::Gts::MakeProfileFeatures(data, fit, /*bins=*/8);
    return std::make_unique<baselines::Gts>(config, features, &rng);
  }
  if (name == "ESG") {
    baselines::Esg::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    // ESG is the second-largest model in the paper's Table VIII; keep
    // that ordering at reproduction scale.
    config.hidden_dim = scale.hidden_dim + scale.hidden_dim / 2;
    config.graph_embed_dim = scale.node_embed_dim;
    return std::make_unique<baselines::Esg>(config, &rng);
  }
  if (name == "Informer") {
    baselines::InformerLite::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.input_steps = p;
    config.d_model = 2 * scale.hidden_dim;
    return std::make_unique<baselines::InformerLite>(config, &rng);
  }
  if (name == "Crossformer") {
    baselines::CrossformerLite::Config config;
    config.num_nodes = n;
    config.input_dim = d;
    config.output_dim = d;
    config.horizon = q;
    config.input_steps = p;
    config.d_model = scale.hidden_dim + scale.hidden_dim / 2;
    config.num_heads = 2;
    return std::make_unique<baselines::CrossformerLite>(config, &rng);
  }
  TGCRN_CHECK(false) << "unknown model name: " << name;
  return nullptr;
}

float LrMultiplier(const std::string& model_name) {
  // Official-code LRs, relative to the 1e-3 most of the GRU-family uses:
  // Informer 1e-4, Crossformer ~5e-4, DCRNN 1e-2.
  if (model_name == "Informer") return 0.15f;
  if (model_name == "Crossformer") return 0.15f;
  if (model_name == "DCRNN") return 1.5f;
  return 1.0f;
}

core::TrainResult RunNeural(core::ForecastModel* model,
                            const DatasetBundle& bundle, const Scale& scale,
                            uint64_t seed) {
  core::TrainConfig config;
  config.epochs = scale.epochs;
  config.batch_size = scale.batch_size;
  config.max_batches_per_epoch = scale.max_batches_per_epoch;
  config.lr = scale.lr * LrMultiplier(model->name());
  config.lr_milestones = scale.lr_milestones;
  config.seed = seed;
  config.verbose = false;
  // TGCRN_BENCH_REPORT_DIR=<dir> streams one JSONL run report per trained
  // model into <dir>/<model>-<dataset>.jsonl (appending across runs).
  if (const auto report_dir = common::EnvString("TGCRN_BENCH_REPORT_DIR")) {
    config.report_path =
        *report_dir + "/" + model->name() + "-" + bundle.name + ".jsonl";
  }
  return core::TrainAndEvaluate(model, *bundle.dataset, config);
}

std::string Cell(double measured, double paper_ref, int precision) {
  if (paper_ref < 0) return TablePrinter::Num(measured, precision);
  return TablePrinter::Num(measured, precision) + " (" +
         TablePrinter::Num(paper_ref, precision) + ")";
}

namespace {

const char kHistoryHeader[] =
    "timestamp_utc,scale,model,threads,s_per_epoch,data_s,forward_s,"
    "backward_s,clip_s,adam_s,eval_s,isa";

// History files written before the isa column existed end their header at
// "eval_s". Rewrite them in place once: new header, ",unknown" backfilled
// onto every data row (the producing ISA was not recorded). Returns false
// on I/O failure (the caller then skips the append rather than corrupting
// the file).
bool MigrateHistoryHeader(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string header;
  if (!std::getline(in, header)) return false;
  if (header == kHistoryHeader) return true;
  if (header.find(",isa") != std::string::npos) return true;  // future schema
  std::ostringstream migrated;
  migrated << kHistoryHeader << "\n";
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) migrated << line << ",unknown\n";
  }
  in.close();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << migrated.str();
  return out.good();
}

}  // namespace

void AppendCostHistory(const std::string& bench_name,
                       const std::string& label, const Scale& scale,
                       const core::TrainResult& result) {
  const std::string dir = "bench_results/history";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + bench_name + "_history.csv";
  const bool exists = std::filesystem::exists(path, ec);
  if (exists && !MigrateHistoryHeader(path)) {
    std::printf("[history append failed: cannot migrate %s]\n", path.c_str());
    return;
  }
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) {
    std::printf("[history append failed: cannot open %s]\n", path.c_str());
    return;
  }
  if (!exists) {
    std::fputs(kHistoryHeader, out);
    std::fputc('\n', out);
  }
  char timestamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  const auto phases = result.report.PhaseTotals();
  auto phase = [&phases](const char* key) {
    const auto it = phases.find(key);
    return it != phases.end() ? it->second : 0.0;
  };
  std::fprintf(out, "%s,%s,%s,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%s\n",
               timestamp, scale.name.c_str(), label.c_str(),
               result.num_threads, result.seconds_per_epoch,
               phase(obs::kPhaseData), phase(obs::kPhaseForward),
               phase(obs::kPhaseBackward), phase(obs::kPhaseClip),
               phase(obs::kPhaseAdam), phase(obs::kPhaseEval),
               common::SimdIsaName(common::ActiveSimdIsa()));
  std::fclose(out);
}

void EmitTable(const std::string& bench_name, const TablePrinter& table) {
  table.Print();
  // Exported rows are stamped with the resolved SIMD ISA so historical
  // CSVs stay attributable to the kernel set that produced them; the
  // console table mirrors the paper's layout and omits the stamp.
  TablePrinter stamped = table;
  stamped.AddColumn("isa", common::SimdIsaName(common::ActiveSimdIsa()));
  const std::string path = "bench_results/" + bench_name + ".csv";
  const Status status = stamped.WriteCsv(path);
  if (status.ok()) {
    std::printf("[csv written to %s]\n", path.c_str());
  } else {
    std::printf("[csv write failed: %s]\n", status.ToString().c_str());
  }
}

}  // namespace bench
}  // namespace tgcrn
