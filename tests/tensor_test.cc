// Copyright 2026 TGCRN Reproduction Authors
// Unit and property tests for the tensor substrate.
#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace tgcrn {
namespace {

TEST(ShapeTest, NumelAndToString) {
  EXPECT_EQ(ShapeNumel({2, 3, 4}), 24);
  EXPECT_EQ(ShapeNumel({}), 1);
  EXPECT_EQ(ShapeNumel({0, 5}), 0);
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
}

TEST(ShapeTest, BroadcastShapes) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({4, 1, 3}, {2, 1}), (Shape{4, 2, 3}));
  EXPECT_EQ(BroadcastShapes({}, {5}), (Shape{5}));
  EXPECT_EQ(BroadcastShapes({1}, {7, 1}), (Shape{7, 1}));
}

TEST(TensorTest, FactoriesProduceExpectedValues) {
  Tensor z = Tensor::Zeros({2, 2});
  EXPECT_EQ(z.SumAll(), 0.0f);
  Tensor o = Tensor::Ones({3});
  EXPECT_EQ(o.SumAll(), 3.0f);
  Tensor f = Tensor::Full({2, 2}, 2.5f);
  EXPECT_EQ(f.MeanAll(), 2.5f);
  Tensor a = Tensor::Arange(5);
  EXPECT_EQ(a.flat(3), 3.0f);
  Tensor eye = Tensor::Eye(3);
  EXPECT_EQ(eye.at({1, 1}), 1.0f);
  EXPECT_EQ(eye.at({1, 2}), 0.0f);
  EXPECT_EQ(eye.SumAll(), 3.0f);
  Tensor s = Tensor::Scalar(4.0f);
  EXPECT_EQ(s.dim(), 0);
  EXPECT_EQ(s.item(), 4.0f);
}

TEST(TensorTest, RandomFactoriesAreDeterministicPerSeed) {
  Rng rng1(42), rng2(42), rng3(43);
  Tensor a = Tensor::RandUniform({4, 4}, -1.0f, 1.0f, &rng1);
  Tensor b = Tensor::RandUniform({4, 4}, -1.0f, 1.0f, &rng2);
  Tensor c = Tensor::RandUniform({4, 4}, -1.0f, 1.0f, &rng3);
  EXPECT_TRUE(a.AllClose(b, 0.0f));
  EXPECT_FALSE(a.AllClose(c, 1e-6f));
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_GE(a.flat(i), -1.0f);
    EXPECT_LT(a.flat(i), 1.0f);
  }
}

TEST(TensorTest, RandNormalMoments) {
  Rng rng(7);
  Tensor a = Tensor::RandNormal({10000}, 2.0f, 3.0f, &rng);
  EXPECT_NEAR(a.MeanAll(), 2.0f, 0.15f);
  const Tensor centered = a.AddScalar(-a.MeanAll());
  const float var = centered.Mul(centered).MeanAll();
  EXPECT_NEAR(std::sqrt(var), 3.0f, 0.2f);
}

TEST(TensorTest, ElementwiseSameShape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  EXPECT_TRUE(a.Add(b).AllClose(Tensor::FromVector({2, 2}, {6, 8, 10, 12})));
  EXPECT_TRUE(b.Sub(a).AllClose(Tensor::FromVector({2, 2}, {4, 4, 4, 4})));
  EXPECT_TRUE(a.Mul(b).AllClose(Tensor::FromVector({2, 2}, {5, 12, 21, 32})));
  EXPECT_TRUE(
      b.Div(a).AllClose(Tensor::FromVector({2, 2}, {5, 3, 7.f / 3, 2})));
  EXPECT_TRUE(a.Maximum(b).AllClose(b));
  EXPECT_TRUE(a.Minimum(b).AllClose(a));
}

TEST(TensorTest, BroadcastAddRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::FromVector({3}, {10, 20, 30});
  Tensor sum = a.Add(row);
  EXPECT_TRUE(
      sum.AllClose(Tensor::FromVector({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(TensorTest, BroadcastMulColumnVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::FromVector({2, 1}, {2, 3});
  Tensor prod = a.Mul(col);
  EXPECT_TRUE(
      prod.AllClose(Tensor::FromVector({2, 3}, {2, 4, 6, 12, 15, 18})));
}

// Property sweep: broadcasting matches explicit materialization across a
// lattice of shape pairs.
class BroadcastShapePairTest
    : public ::testing::TestWithParam<std::tuple<Shape, Shape>> {};

TEST_P(BroadcastShapePairTest, MatchesMaterializedBroadcast) {
  const auto& [sa, sb] = GetParam();
  Rng rng(123);
  Tensor a = Tensor::RandUniform(sa, -2.0f, 2.0f, &rng);
  Tensor b = Tensor::RandUniform(sb, -2.0f, 2.0f, &rng);
  const Shape out = BroadcastShapes(sa, sb);
  Tensor am = a.BroadcastTo(out);
  Tensor bm = b.BroadcastTo(out);
  EXPECT_TRUE(a.Add(b).AllClose(am.Add(bm), 1e-6f));
  EXPECT_TRUE(a.Mul(b).AllClose(am.Mul(bm), 1e-6f));
  EXPECT_TRUE(a.Sub(b).AllClose(am.Sub(bm), 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(
    Lattice, BroadcastShapePairTest,
    ::testing::Values(
        std::make_tuple(Shape{3}, Shape{3}),
        std::make_tuple(Shape{2, 3}, Shape{3}),
        std::make_tuple(Shape{2, 3}, Shape{1, 3}),
        std::make_tuple(Shape{2, 1}, Shape{1, 3}),
        std::make_tuple(Shape{4, 1, 3}, Shape{2, 3}),
        std::make_tuple(Shape{1}, Shape{2, 3, 4}),
        std::make_tuple(Shape{5, 1, 1}, Shape{1, 4, 3}),
        std::make_tuple(Shape{}, Shape{2, 2}),
        std::make_tuple(Shape{2, 2, 2, 2}, Shape{2, 1, 2})));

TEST(TensorTest, MapAndUnaryOps) {
  Tensor a = Tensor::FromVector({4}, {-2, -0.5, 0.5, 2});
  EXPECT_TRUE(a.Abs().AllClose(Tensor::FromVector({4}, {2, 0.5, 0.5, 2})));
  EXPECT_TRUE(a.Relu().AllClose(Tensor::FromVector({4}, {0, 0, 0.5, 2})));
  EXPECT_NEAR(a.Tanh().flat(0), std::tanh(-2.0f), 1e-6f);
  EXPECT_NEAR(a.Sigmoid().flat(3), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
  EXPECT_NEAR(a.Exp().flat(2), std::exp(0.5f), 1e-6f);
  Tensor b = Tensor::FromVector({2}, {1, 4});
  EXPECT_TRUE(b.Sqrt().AllClose(Tensor::FromVector({2}, {1, 2})));
  EXPECT_NEAR(b.Log().flat(1), std::log(4.0f), 1e-6f);
  EXPECT_TRUE(b.Pow(2.0f).AllClose(Tensor::FromVector({2}, {1, 16})));
}

TEST(TensorTest, Matmul2D) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = a.Matmul(b);
  EXPECT_TRUE(c.AllClose(Tensor::FromVector({2, 2}, {58, 64, 139, 154})));
}

TEST(TensorTest, MatmulBatched) {
  // Two batch matrices times a shared matrix (broadcast on rhs).
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
  Tensor b = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor c = a.Matmul(b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  EXPECT_TRUE(c.Slice(0, 0, 1).Squeeze(0).AllClose(b));
  EXPECT_TRUE(c.Slice(0, 1, 2).Squeeze(0).AllClose(b.MulScalar(2.0f)));
}

TEST(TensorTest, MatmulBatchedBothSides) {
  Rng rng(9);
  Tensor a = Tensor::RandUniform({3, 4, 5}, -1, 1, &rng);
  Tensor b = Tensor::RandUniform({3, 5, 2}, -1, 1, &rng);
  Tensor c = a.Matmul(b);
  EXPECT_EQ(c.shape(), (Shape{3, 4, 2}));
  // Verify one element by hand.
  float expect = 0.0f;
  for (int64_t k = 0; k < 5; ++k) {
    expect += a.at({2, 1, k}) * b.at({2, k, 1});
  }
  EXPECT_NEAR(c.at({2, 1, 1}), expect, 1e-5f);
}

TEST(TensorTest, ReshapeAndInfer) {
  Tensor a = Tensor::Arange(12);
  Tensor b = a.Reshape({3, 4});
  EXPECT_EQ(b.at({2, 3}), 11.0f);
  Tensor c = b.Reshape({2, -1});
  EXPECT_EQ(c.shape(), (Shape{2, 6}));
  EXPECT_EQ(c.at({1, 0}), 6.0f);
}

TEST(TensorTest, TransposeAndPermute) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = a.Transpose(0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({0, 1}), 4.0f);
  EXPECT_EQ(t.at({2, 0}), 3.0f);

  Rng rng(5);
  Tensor x = Tensor::RandUniform({2, 3, 4}, -1, 1, &rng);
  Tensor p = x.Permute({2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_EQ(p.at({3, 1, 2}), x.at({1, 2, 3}));
  // Permuting back is the identity.
  EXPECT_TRUE(p.Permute({1, 2, 0}).AllClose(x));
}

TEST(TensorTest, SliceConcatRoundTrip) {
  Rng rng(11);
  Tensor x = Tensor::RandUniform({4, 6, 2}, -1, 1, &rng);
  for (int64_t axis = 0; axis < 3; ++axis) {
    const int64_t len = x.size(axis);
    Tensor left = x.Slice(axis, 0, len / 2);
    Tensor right = x.Slice(axis, len / 2, len);
    Tensor joined = Tensor::Concat({left, right}, axis);
    EXPECT_TRUE(joined.AllClose(x)) << "axis " << axis;
  }
}

TEST(TensorTest, StackAddsAxis) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  Tensor s0 = Tensor::Stack({a, b}, 0);
  EXPECT_EQ(s0.shape(), (Shape{2, 2}));
  EXPECT_EQ(s0.at({1, 0}), 3.0f);
  Tensor s1 = Tensor::Stack({a, b}, 1);
  EXPECT_EQ(s1.shape(), (Shape{2, 2}));
  EXPECT_EQ(s1.at({0, 1}), 3.0f);
}

TEST(TensorTest, Reductions) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(a.SumAll(), 21.0f);
  EXPECT_EQ(a.MeanAll(), 3.5f);
  EXPECT_EQ(a.MaxAll(), 6.0f);
  EXPECT_EQ(a.MinAll(), 1.0f);
  EXPECT_TRUE(a.Sum(0).AllClose(Tensor::FromVector({3}, {5, 7, 9})));
  EXPECT_TRUE(a.Sum(1).AllClose(Tensor::FromVector({2}, {6, 15})));
  EXPECT_TRUE(a.Mean(1).AllClose(Tensor::FromVector({2}, {2, 5})));
  EXPECT_TRUE(a.Max(0).AllClose(Tensor::FromVector({3}, {4, 5, 6})));
  Tensor kd = a.Sum(1, /*keepdim=*/true);
  EXPECT_EQ(kd.shape(), (Shape{2, 1}));
}

TEST(TensorTest, ReduceToSumsBroadcastDims) {
  Rng rng(3);
  Tensor g = Tensor::RandUniform({4, 2, 3}, -1, 1, &rng);
  Tensor r = g.ReduceTo({2, 3});
  EXPECT_TRUE(r.AllClose(g.Sum(0)));
  Tensor r2 = g.ReduceTo({4, 1, 3});
  EXPECT_TRUE(r2.AllClose(g.Sum(1, /*keepdim=*/true)));
  Tensor r3 = g.ReduceTo({4, 2, 3});
  EXPECT_TRUE(r3.AllClose(g));
}

TEST(TensorTest, SoftmaxRowsAreStochastic) {
  Rng rng(17);
  Tensor a = Tensor::RandUniform({5, 7}, -30.0f, 30.0f, &rng);
  Tensor sm = a.Softmax(1);
  Tensor row_sums = sm.Sum(1);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(row_sums.flat(i), 1.0f, 1e-5f);
  }
  EXPECT_GE(sm.MinAll(), 0.0f);
  EXPECT_FALSE(sm.HasNonFinite());
}

TEST(TensorTest, SoftmaxMatchesHandComputation) {
  Tensor a = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor sm = a.Softmax(1);
  const float z = std::exp(1.f) + std::exp(2.f) + std::exp(3.f);
  EXPECT_NEAR(sm.flat(0), std::exp(1.f) / z, 1e-6f);
  EXPECT_NEAR(sm.flat(2), std::exp(3.f) / z, 1e-6f);
}

TEST(TensorTest, IndexSelectAndIndexAdd) {
  Tensor w = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor picked = w.IndexSelect0({2, 0, 2});
  EXPECT_TRUE(
      picked.AllClose(Tensor::FromVector({3, 2}, {5, 6, 1, 2, 5, 6})));

  Tensor grad = Tensor::Zeros({3, 2});
  grad.IndexAdd0Inplace({2, 0, 2},
                        Tensor::FromVector({3, 2}, {1, 1, 1, 1, 1, 1}));
  EXPECT_TRUE(grad.AllClose(Tensor::FromVector({3, 2}, {1, 1, 0, 0, 2, 2})));
}

TEST(TensorTest, AddSliceInplace) {
  Tensor x = Tensor::Zeros({2, 4});
  Tensor patch = Tensor::Ones({2, 2});
  x.AddSliceInplace(1, 1, patch);
  EXPECT_TRUE(
      x.AllClose(Tensor::FromVector({2, 4}, {0, 1, 1, 0, 0, 1, 1, 0})));
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Ones({2});
  Tensor b = a.Clone();
  b.set_flat(0, 5.0f);
  EXPECT_EQ(a.flat(0), 1.0f);
}

TEST(TensorTest, HasNonFinite) {
  Tensor a = Tensor::Ones({2});
  EXPECT_FALSE(a.HasNonFinite());
  a.set_flat(1, std::numeric_limits<float>::infinity());
  EXPECT_TRUE(a.HasNonFinite());
  Tensor b = Tensor::Zeros({1});
  b.set_flat(0, std::nanf(""));
  EXPECT_TRUE(b.HasNonFinite());
}

TEST(TensorTest, MaxAbsDiffAndAllClose) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f});
  Tensor b = Tensor::FromVector({2}, {1.0f, 2.5f});
  EXPECT_NEAR(Tensor::MaxAbsDiff(a, b), 0.5f, 1e-6f);
  EXPECT_TRUE(a.AllClose(b, 0.6f));
  EXPECT_FALSE(a.AllClose(b, 0.4f));
  EXPECT_FALSE(a.AllClose(Tensor::Ones({3})));
}

TEST(TensorTest, UnsqueezeSqueeze) {
  Tensor a = Tensor::Arange(6).Reshape({2, 3});
  EXPECT_EQ(a.Unsqueeze(0).shape(), (Shape{1, 2, 3}));
  EXPECT_EQ(a.Unsqueeze(-1).shape(), (Shape{2, 3, 1}));
  EXPECT_EQ(a.Unsqueeze(1).Squeeze(1).shape(), (Shape{2, 3}));
}

TEST(TensorTest, BroadcastToMaterializes) {
  Tensor a = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor b = a.BroadcastTo({2, 3});
  EXPECT_TRUE(
      b.AllClose(Tensor::FromVector({2, 3}, {1, 2, 3, 1, 2, 3})));
}

TEST(TensorTest, MatmulTransposeAMatchesExplicitTranspose) {
  Rng rng(41);
  // Rank-2, batched, and broadcast-batch cases.
  struct Case {
    Shape a, b;
  };
  for (const auto& c : {Case{{7, 5}, {7, 9}},
                        Case{{3, 7, 5}, {3, 7, 9}},
                        Case{{2, 1, 7, 5}, {1, 4, 7, 9}}}) {
    Tensor a = Tensor::RandUniform(c.a, -2, 2, &rng);
    Tensor b = Tensor::RandUniform(c.b, -2, 2, &rng);
    Tensor fast = a.MatmulTransposeA(b);
    Tensor ref = a.Transpose(a.dim() - 2, a.dim() - 1).Matmul(b);
    ASSERT_EQ(fast.shape(), ref.shape());
    EXPECT_EQ(Tensor::MaxAbsDiff(fast, ref), 0.0f)
        << ShapeToString(c.a) << " x " << ShapeToString(c.b);
  }
}

TEST(TensorTest, MatmulTransposeBMatchesExplicitTranspose) {
  Rng rng(42);
  struct Case {
    Shape a, b;
  };
  for (const auto& c : {Case{{7, 5}, {9, 5}},
                        Case{{3, 7, 5}, {3, 9, 5}},
                        Case{{2, 1, 7, 5}, {1, 4, 9, 5}}}) {
    Tensor a = Tensor::RandUniform(c.a, -2, 2, &rng);
    Tensor b = Tensor::RandUniform(c.b, -2, 2, &rng);
    Tensor bt = b.Transpose(b.dim() - 2, b.dim() - 1);
    {
      // Scalar kernels accumulate in the same order on both sides, so
      // the transposed mode is bit-exact against a materialized
      // transpose.
      common::ScopedSimdIsa pin(common::SimdIsa::kScalar);
      Tensor fast = a.MatmulTransposeB(b);
      Tensor ref = a.Matmul(bt);
      ASSERT_EQ(fast.shape(), ref.shape());
      EXPECT_EQ(Tensor::MaxAbsDiff(fast, ref), 0.0f)
          << ShapeToString(c.a) << " x " << ShapeToString(c.b);
    }
    // The AVX2 dot kernel splits the reduction across lanes, so the two
    // strategies may differ in the last bits; values here are O(10), so
    // a k-scaled ulp bound is ~2e-5.
    Tensor fast = a.MatmulTransposeB(b);
    Tensor ref = a.Matmul(bt);
    ASSERT_EQ(fast.shape(), ref.shape());
    EXPECT_LE(Tensor::MaxAbsDiff(fast, ref), 1e-4f)
        << ShapeToString(c.a) << " x " << ShapeToString(c.b);
  }
}

TEST(TensorTest, AddScaledInplaceIsAxpy) {
  Tensor acc = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor inc = Tensor::FromVector({4}, {10, 20, 30, 40});
  acc.AddScaledInplace(inc, -0.5f);
  EXPECT_TRUE(acc.AllClose(Tensor::FromVector({4}, {-4, -8, -12, -16})));
}

TEST(TensorTest, AddProductInplaceIsFma) {
  Tensor acc = Tensor::FromVector({4}, {1, 1, 1, 1});
  Tensor a = Tensor::FromVector({4}, {2, 3, 4, 5});
  Tensor b = Tensor::FromVector({4}, {10, 10, 10, 10});
  acc.AddProductInplace(a, b);
  EXPECT_TRUE(acc.AllClose(Tensor::FromVector({4}, {21, 31, 41, 51})));
}

TEST(TensorTest, FusedGradKernelsMatchOpChains) {
  Rng rng(43);
  Tensor x = Tensor::RandUniform({6, 37}, -3, 3, &rng);
  Tensor g = Tensor::RandUniform({6, 37}, -2, 2, &rng);

  Tensor y = x.Sigmoid();
  Tensor sig_chain = g.Mul(y).Mul(y.Neg().AddScalar(1.0f));
  EXPECT_EQ(Tensor::MaxAbsDiff(SigmoidGradKernel(y, g), sig_chain), 0.0f);

  Tensor t = x.Tanh();
  Tensor tanh_chain = g.Mul(t.Mul(t).Neg().AddScalar(1.0f));
  EXPECT_EQ(Tensor::MaxAbsDiff(TanhGradKernel(t, g), tanh_chain), 0.0f);

  Tensor relu_chain =
      g.Mul(x.Map([](float v) { return v > 0.0f ? 1.0f : 0.0f; }));
  // Values match exactly; only the sign of zeros may differ, which
  // MaxAbsDiff treats as equal.
  EXPECT_EQ(Tensor::MaxAbsDiff(ReluGradKernel(x, g), relu_chain), 0.0f);

  Tensor b = x.Abs().AddScalar(1.0f);
  Tensor div_chain = g.Mul(x).Div(b.Mul(b)).Neg();
  EXPECT_EQ(Tensor::MaxAbsDiff(DivGradRhsKernel(g, x, b), div_chain), 0.0f);
}

TEST(TensorTest, SoftmaxGradKernelMatchesChain) {
  Rng rng(44);
  Tensor x = Tensor::RandUniform({5, 9, 13}, -4, 4, &rng);
  Tensor g = Tensor::RandUniform({5, 9, 13}, -2, 2, &rng);
  Tensor y = x.Softmax(-1);
  // Chain form: y * (g - sum(g * y, last, keepdim)).
  Tensor dot = g.Mul(y).Sum(/*axis=*/2, /*keepdim=*/true);
  Tensor chain = y.Mul(g.Sub(dot));
  Tensor fused = SoftmaxGradKernel(y, g);
  ASSERT_EQ(fused.shape(), chain.shape());
  EXPECT_EQ(Tensor::MaxAbsDiff(fused, chain), 0.0f);
}

TEST(TensorTest, MapTMatchesMap) {
  Rng rng(45);
  Tensor x = Tensor::RandUniform({2049}, -3, 3, &rng);
  Tensor a = x.MapT([](float v) { return v * v + 1.0f; });
  Tensor b = x.Map([](float v) { return v * v + 1.0f; });
  EXPECT_EQ(Tensor::MaxAbsDiff(a, b), 0.0f);
}

// The calibrated grains keep small ops inline, so these shapes sit above
// each kernel's serial cutoff: every kernel must take the pooled path and
// still give the same bits at 2 and 4 threads as at 1.
TEST(TensorParallelTest, KernelsAboveTheSerialCutoffsMatchSerialBits) {
  Rng rng(11);
  const int64_t cols = kElemwiseGrain / 3 + 111;  // not a chunk multiple
  const Tensor a = Tensor::RandUniform({3, cols}, -2, 2, &rng);
  const Tensor b = Tensor::RandUniform({3, cols}, -2, 2, &rng);
  const Tensor col = Tensor::RandUniform({3, 1}, -2, 2, &rng);
  const Tensor rows = Tensor::RandUniform({2000, 20}, -2, 2, &rng);
  const Tensor rows_grad = Tensor::RandUniform({2000, 20}, -1, 1, &rng);
  const Tensor m1_a = Tensor::RandUniform({256, 1, 32}, -1, 1, &rng);
  const Tensor m1_b = Tensor::RandUniform({256, 32, 32}, -1, 1, &rng);
  const Tensor rows_a = Tensor::RandUniform({64, 20, 20}, -1, 1, &rng);
  const Tensor rows_b = Tensor::RandUniform({64, 20, 32}, -1, 1, &rng);
  const std::vector<std::pair<std::string, std::function<Tensor()>>> cases = {
      {"add", [&] { return a.Add(b); }},
      {"broadcast_mul", [&] { return a.Mul(col); }},
      {"tanh", [&] { return a.Tanh(); }},
      {"sigmoid", [&] { return a.Sigmoid(); }},
      {"softmax_rows", [&] { return rows.Softmax(-1); }},
      {"sum_axis", [&] { return rows.Sum(-1); }},
      {"softmax_grad",
       [&] { return SoftmaxGradKernel(rows.Softmax(-1), rows_grad); }},
      {"matmul_m1", [&] { return m1_a.Matmul(m1_b); }},
      {"matmul_rows", [&] { return rows_a.Matmul(rows_b); }},
      {"sum_all", [&] { return Tensor::Scalar(a.SumAll()); }},
  };
  for (const auto& [name, make] : cases) {
    Tensor want;
    {
      common::ScopedNumThreads guard(1);
      want = make();
    }
    for (const int threads : {2, 4}) {
      common::ScopedNumThreads guard(threads);
      const int64_t chunks_before = common::GetPoolStats().chunks_executed;
      const Tensor got = make();
      EXPECT_GT(common::GetPoolStats().chunks_executed, chunks_before)
          << name << " ran serially at " << threads << " threads";
      ASSERT_EQ(got.shape(), want.shape()) << name;
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<size_t>(got.numel()) * sizeof(float)),
                0)
          << name << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace tgcrn
