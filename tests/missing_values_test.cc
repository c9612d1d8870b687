// Tests for the missing-value PARAFAC extension (EM-ALS over the
// distributed bottleneck op): validation, monotone observed fit,
// completion of a low-rank tensor from partial observations, and one
// residual decode per EM iteration.

#include "core/missing_values.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace haten2 {
namespace {

// Exact rank-2 tensor, an observation mask covering a random fraction of
// cells, and the data restricted to the mask.
struct CompletionFixture {
  SparseTensor full;      // dense-as-sparse ground truth
  SparseTensor observed;  // binary mask
  SparseTensor data;      // full restricted to the mask
};

CompletionFixture MakeFixture(double observe_fraction, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> lambda = {3.0, 1.5};
  DenseMatrix a = DenseMatrix::RandomUniform(10, 2, &rng);
  DenseMatrix b = DenseMatrix::RandomUniform(9, 2, &rng);
  DenseMatrix c = DenseMatrix::RandomUniform(8, 2, &rng);
  Result<DenseTensor> dense = ReconstructKruskal(lambda, {&a, &b, &c});
  HATEN2_CHECK(dense.ok());

  CompletionFixture fx;
  fx.full = dense->ToSparse();
  Result<SparseTensor> mask = SparseTensor::Create({10, 9, 8});
  Result<SparseTensor> data = SparseTensor::Create({10, 9, 8});
  HATEN2_CHECK(mask.ok() && data.ok());
  fx.observed = std::move(mask).value();
  fx.data = std::move(data).value();
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      for (int64_t k = 0; k < 8; ++k) {
        if (!rng.Bernoulli(observe_fraction)) continue;
        int64_t idx[3] = {i, j, k};
        fx.observed.AppendUnchecked(idx, 1.0);
        double v = fx.full.Get({i, j, k});
        if (v != 0.0) fx.data.AppendUnchecked(idx, v);
      }
    }
  }
  fx.observed.Canonicalize();
  fx.data.Canonicalize();
  return fx;
}

TEST(MissingValues, CompletesLowRankTensorFromHalfTheCells) {
  CompletionFixture fx = MakeFixture(0.5, 301);
  Engine engine(ClusterConfig::ForTesting());
  MissingValueOptions options;
  options.em_iterations = 200;
  options.em_tolerance = 1e-12;
  options.base.seed = 9;
  Result<MissingValueModel> result =
      Haten2ParafacMissing(&engine, fx.data, fx.observed, 2, options);
  ASSERT_OK(result.status());
  EXPECT_GT(result->observed_fit, 0.99);

  // The real test of completion: accuracy on the *unobserved* cells.
  double resid_sq = 0.0;
  double total_sq = 0.0;
  for (int64_t i = 0; i < 10; ++i) {
    for (int64_t j = 0; j < 9; ++j) {
      for (int64_t k = 0; k < 8; ++k) {
        if (fx.observed.Get({i, j, k}) != 0.0) continue;
        double truth = fx.full.Get({i, j, k});
        double predicted = 0.0;
        for (int64_t r = 0; r < 2; ++r) {
          predicted += result->model.lambda[static_cast<size_t>(r)] *
                       result->model.factors[0](i, r) *
                       result->model.factors[1](j, r) *
                       result->model.factors[2](k, r);
        }
        resid_sq += (truth - predicted) * (truth - predicted);
        total_sq += truth * truth;
      }
    }
  }
  ASSERT_GT(total_sq, 0.0);
  EXPECT_LT(std::sqrt(resid_sq / total_sq), 0.15);
}

TEST(MissingValues, ObservedFitImprovesMonotonically) {
  CompletionFixture fx = MakeFixture(0.4, 302);
  Engine engine(ClusterConfig::ForTesting());
  MissingValueOptions options;
  options.em_iterations = 15;
  options.em_tolerance = 0.0;
  Result<MissingValueModel> result =
      Haten2ParafacMissing(&engine, fx.data, fx.observed, 2, options);
  ASSERT_OK(result.status());
  ASSERT_GE(result->observed_fit_history.size(), 3u);
  for (size_t i = 1; i < result->observed_fit_history.size(); ++i) {
    EXPECT_GE(result->observed_fit_history[i],
              result->observed_fit_history[i - 1] - 1e-8)
        << "EM iteration " << i;
  }
}

TEST(MissingValues, FullyObservedMatchesPlainParafacFit) {
  // With the full mask, EM-ALS solves the same problem as plain PARAFAC.
  Rng rng(303);
  SparseTensor x =
      haten2::testing::RandomSparseTensor({8, 7, 6}, 200, &rng);
  Result<SparseTensor> mask = SparseTensor::Create({8, 7, 6});
  ASSERT_OK(mask.status());
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 7; ++j) {
      for (int64_t k = 0; k < 6; ++k) {
        int64_t idx[3] = {i, j, k};
        mask->AppendUnchecked(idx, 1.0);
      }
    }
  }
  mask->Canonicalize();

  Engine engine(ClusterConfig::ForTesting());
  MissingValueOptions options;
  options.em_iterations = 15;
  options.base.seed = 5;
  Result<MissingValueModel> em =
      Haten2ParafacMissing(&engine, x, *mask, 3, options);
  ASSERT_OK(em.status());

  Haten2Options plain;
  plain.max_iterations = 15;
  plain.seed = 5;
  Result<KruskalModel> direct = Haten2ParafacAls(&engine, x, 3, plain);
  ASSERT_OK(direct.status());
  EXPECT_NEAR(em->observed_fit, direct->fit, 0.02);
}

TEST(MissingValues, ResidualDecodedOncePerEmIteration) {
  // The residual changes every EM iteration but is fixed across that
  // iteration's per-mode contractions: DNN and Naive decode it once per
  // iteration and hit for the other modes.
  CompletionFixture fx = MakeFixture(0.5, 305);
  for (Variant variant : {Variant::kDnn, Variant::kNaive}) {
    SCOPED_TRACE(VariantName(variant));
    Engine engine(ClusterConfig::ForTesting());
    MissingValueOptions options;
    options.em_iterations = 4;
    options.em_tolerance = 0.0;
    options.base.variant = variant;
    Result<MissingValueModel> result =
        Haten2ParafacMissing(&engine, fx.data, fx.observed, 2, options);
    ASSERT_OK(result.status());
    ASSERT_EQ(result->em_iterations, 4);
    EXPECT_EQ(engine.pipeline().invariant_cache_misses, 4);
    EXPECT_EQ(engine.pipeline().invariant_cache_hits, 8);
  }
}

TEST(MissingValues, Validation) {
  Rng rng(304);
  SparseTensor x = haten2::testing::RandomSparseTensor({5, 5, 5}, 20, &rng);
  SparseTensor mask = x.Binarized();
  Engine engine(ClusterConfig::ForTesting());

  EXPECT_TRUE(Haten2ParafacMissing(nullptr, x, mask, 2).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Haten2ParafacMissing(&engine, x, mask, 0).status()
                  .IsInvalidArgument());
  // Mask with a non-binary value.
  SparseTensor bad_mask = x;  // values aren't 1.0
  EXPECT_TRUE(Haten2ParafacMissing(&engine, x, bad_mask, 2).status()
                  .IsInvalidArgument());
  // Mask with wrong dims.
  SparseTensor small =
      haten2::testing::RandomSparseTensor({4, 4, 4}, 8, &rng).Binarized();
  EXPECT_TRUE(Haten2ParafacMissing(&engine, x, small, 2).status()
                  .IsInvalidArgument());
  // Data outside the mask.
  Result<SparseTensor> partial_mask = SparseTensor::Create({5, 5, 5});
  ASSERT_OK(partial_mask.status());
  int64_t idx[3] = {0, 0, 0};
  partial_mask->AppendUnchecked(idx, 1.0);
  partial_mask->Canonicalize();
  if (x.nnz() > 1) {
    EXPECT_TRUE(
        Haten2ParafacMissing(&engine, x, *partial_mask, 2).status()
            .IsInvalidArgument());
  }
  // ObservedFit validates too.
  KruskalModel dummy;
  dummy.lambda = {1.0};
  dummy.factors.assign(3, DenseMatrix(5, 1));
  EXPECT_TRUE(ObservedFit(x, bad_mask, dummy).status().IsInvalidArgument());
  EXPECT_OK(ObservedFit(x, mask, dummy).status());
}

}  // namespace
}  // namespace haten2
