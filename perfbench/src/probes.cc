// Micro-probes of single layers at a workload's model shape. Each probe
// calls a layer's public function directly and reports the median time
// per call with its sample count.
#include <algorithm>

#include "autograd/sparse_ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/gcgru.h"
#include "core/tagsl.h"
#include "core/time_encoders.h"
#include "graph/csr.h"
#include "bench.h"

namespace perfbench {

namespace ag = tgcrn::ag;
namespace core = tgcrn::core;
using tgcrn::Rng;
using tgcrn::Tensor;

namespace {

Tensor Random(const std::vector<int64_t>& shape, Rng* rng, float lo, float hi) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.mutable_data()[i] = lo + static_cast<float>(rng->NextDouble()) * (hi - lo);
  }
  return t;
}

}  // namespace

void RunLayerProbes(const TrainSpec& spec, uint64_t seed, Outcome* out) {
  Rng rng(5000 + seed);
  int64_t reps = 0;
  const int64_t n = spec.nodes;
  const int64_t b = spec.batch_size;
  const int64_t d = 2;

  // common: an empty ParallelFor over a range far above its grain, so it
  // always dispatches to the pool at this width.
  const double dispatch = MedianSeconds(
      [] { tgcrn::common::ParallelFor(0, 1 << 14, 1, [](int64_t, int64_t) {}); },
      200, 0.2, &reps);
  out->Put("common.dispatch_us", dispatch * 1e6, "us", reps);

  // graph: one N-wide row through the exact top-k selection at k=16.
  {
    const int64_t k = std::min<int64_t>(16, n);
    const Tensor rows = Random({64, n}, &rng, 0.0f, 1.0f);
    std::vector<int64_t> ids(static_cast<size_t>(k)), scratch(static_cast<size_t>(n));
    int64_t row = 0;
    const double topk = MedianSeconds(
        [&] {
          tgcrn::graph::TopKRow(rows.data() + (row++ % 64) * n, n, k, ids.data(),
                                scratch.data());
        },
        200, 0.2, &reps);
    out->Put("graph.topk_row_us", topk * 1e6, "us", reps);
  }

  // core: the TagSL graph at the workload's batch shape (sparse top-k CSR
  // when the workload trains one, dense otherwise), and one GCGRU step.
  core::DiscreteTimeEmbedding time_encoder(spec.steps_per_day, spec.time_embed, &rng);
  core::TagSL::Options tagsl_options;
  tagsl_options.num_nodes = n;
  tagsl_options.node_dim = spec.node_embed;
  core::TagSL tagsl(tagsl_options, &time_encoder, &rng);
  const ag::Variable x(Random({b, n, d}, &rng, -1.0f, 1.0f));
  const std::vector<int64_t> slots(static_cast<size_t>(b), 5);
  const std::vector<int64_t> prev(static_cast<size_t>(b), 4);
  auto build_adjacency = [&]() -> core::Adjacency {
    if (spec.topk > 0) return tagsl.BuildSparseGraph(x, slots, prev, spec.topk);
    return tagsl.BuildGraph(x, slots, prev);
  };
  const double graph_s = MedianSeconds(
      [&] {
        ag::StepArenaScope step;
        build_adjacency();
      },
      3, 0.3, &reps);
  out->Put("core.tagsl_graph_ms", graph_s * 1e3, "ms", reps);
  {
    core::GCGRUCell cell(d, spec.hidden, spec.node_embed, spec.time_embed, &rng);
    const core::Adjacency adj = build_adjacency();
    const ag::Variable h(Random({b, n, spec.hidden}, &rng, -1.0f, 1.0f));
    const ag::Variable time_embed = time_encoder.Encode(slots);
    const double step_s = MedianSeconds(
        [&] {
          ag::StepArenaScope step;
          cell.Forward(x, h, adj, tagsl.node_embedding(), time_embed);
        },
        3, 0.3, &reps);
    out->Put("core.gcgru_step_ms", step_s * 1e3, "ms", reps);
  }

  // tensor: the node-adaptive convolution's batched GEMM,
  // [N, B, 2C] x [N, 2C, 2H] with C = input + hidden channels.
  {
    const int64_t c2 = 2 * (d + spec.hidden);
    const Tensor a = Random({n, b, c2}, &rng, -1.0f, 1.0f);
    const Tensor w = Random({n, c2, 2 * spec.hidden}, &rng, -1.0f, 1.0f);
    const double gemm = MedianSeconds([&] { a.Matmul(w); }, 20, 0.2, &reps);
    out->Put("tensor.gemm_us", gemm * 1e6, "us", reps);
  }

  // autograd: CSR SpMM at the city shape (N=2048, k=16, batch 4), the
  // sparse aggregation of every top-k GCGRU step.
  {
    constexpr int64_t kN = 2048, kK = 16, kB = 4, kC = 10;
    const ag::SparseGraph graph =
        ag::SparsifyTopK(ag::Variable(Random({kB, kN, kN}, &rng, 0.0f, 1.0f)), kK);
    const ag::Variable features(Random({kB, kN, kC}, &rng, -1.0f, 1.0f), true);
    const double spmm = MedianSeconds(
        [&] {
          ag::StepArenaScope step;
          ag::SpmmCsr(graph, features);
        },
        10, 0.2, &reps);
    out->Put("autograd.spmm_ms", spmm * 1e3, "ms", reps);
  }
}

}  // namespace perfbench
