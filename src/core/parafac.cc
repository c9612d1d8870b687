#include "core/parafac.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/als_harness.h"
#include "core/records.h"
#include "linalg/linalg.h"
#include "util/random.h"
#include "util/string_util.h"

namespace haten2 {

namespace {

constexpr double kNonnegativeEps = 1e-12;

}  // namespace

Result<KruskalModel> Haten2ParafacAls(Engine* engine, const SparseTensor& x,
                                      int64_t rank,
                                      const Haten2Options& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (rank <= 0) {
    return Status::InvalidArgument("rank must be positive");
  }
  if (x.order() < 2 || x.order() > kMaxMrOrder) {
    return Status::InvalidArgument(
        StrFormat("HaTen2-PARAFAC supports orders 2..%d, got %d", kMaxMrOrder,
                  x.order()));
  }
  if (x.nnz() == 0) {
    return Status::InvalidArgument("cannot decompose an all-zero tensor");
  }
  const int order = x.order();

  const std::string method = options.nonnegative ? "parafac-nn" : "parafac";
  const uint64_t fingerprint = CheckpointFingerprint(
      method, options.variant, options.seed, options.tolerance, {rank}, x);

  KruskalModel model;
  AlsHarness harness(engine, options,
                     {.method = method, .fingerprint = fingerprint}, &model,
                     &model.fit_history);
  const std::vector<int64_t> cols(static_cast<size_t>(order), rank);
  HATEN2_ASSIGN_OR_RETURN(bool resumed, harness.Restore(x.dims(), cols));
  if (resumed) {
    if (!model.fit_history.empty()) model.fit = model.fit_history.back();
  } else if (options.initial_kruskal != nullptr) {
    const KruskalModel& init = *options.initial_kruskal;
    HATEN2_RETURN_IF_ERROR(
        CheckFactorShapes(init.factors, x.dims(), cols, "warm-start"));
    if (static_cast<int64_t>(init.lambda.size()) != rank) {
      return Status::InvalidArgument("warm-start lambda does not match rank");
    }
    model.lambda = init.lambda;
    model.factors = init.factors;
  } else {
    Rng rng(options.seed);
    model.lambda.assign(static_cast<size_t>(rank), 1.0);
    model.factors.reserve(static_cast<size_t>(order));
    for (int m = 0; m < order; ++m) {
      model.factors.push_back(
          DenseMatrix::RandomUniform(x.dim(m), rank, &rng));
    }
  }

  std::vector<DenseMatrix> grams;
  grams.reserve(static_cast<size_t>(order));
  for (int m = 0; m < order; ++m) grams.push_back(Gram(model.factors[m]));

  Status loop_status = harness.Run(
      [&](int iter, IterationStats* stats,
          std::optional<double>* metric) -> Status {
      for (int n = 0; n < order; ++n) {
        HATEN2_ASSIGN_OR_RETURN(
            SliceBlocks y,
            MultiModeContract(engine, x, model.FactorPtrs(), n,
                              MergeKind::kPairwise, options.variant,
                              harness.cache()));
        DenseMatrix mttkrp = y.ToDenseMatrix();  // I_n x R

        // V = ∗_{m != n} A_mᵀ A_m.
        DenseMatrix v(rank, rank);
        v.Fill(1.0);
        for (int m = 0; m < order; ++m) {
          if (m == n) continue;
          for (int64_t r = 0; r < rank; ++r) {
            for (int64_t s = 0; s < rank; ++s) {
              v(r, s) *= grams[static_cast<size_t>(m)](r, s);
            }
          }
        }

        DenseMatrix updated;
        if (options.nonnegative) {
          // Lee-Seung multiplicative update:
          // A ← A ∘ MTTKRP / (A·V), keeping entries nonnegative.
          DenseMatrix& a = model.factors[static_cast<size_t>(n)];
          HATEN2_ASSIGN_OR_RETURN(DenseMatrix av, MatMul(a, v));
          updated = a;
          for (int64_t i = 0; i < a.rows(); ++i) {
            for (int64_t r = 0; r < rank; ++r) {
              double denom = av(i, r);
              double num = mttkrp(i, r);
              updated(i, r) =
                  a(i, r) * (num / std::max(denom, kNonnegativeEps));
              if (updated(i, r) < 0.0) updated(i, r) = 0.0;
            }
          }
        } else {
          HATEN2_ASSIGN_OR_RETURN(updated, SolveRightPinv(mttkrp, v));
        }
        NormalizeColumns(&updated, &model.lambda);
        model.factors[static_cast<size_t>(n)] = std::move(updated);
        grams[static_cast<size_t>(n)] =
            Gram(model.factors[static_cast<size_t>(n)]);
      }
      model.iterations = iter;
      if (options.compute_fit) {
        HATEN2_ASSIGN_OR_RETURN(double fit, KruskalFit(x, model));
        model.fit = fit;
        model.fit_history.push_back(fit);
        stats->has_fit = true;
        stats->fit = fit;
        *metric = fit;
      }
      stats->lambda = model.lambda;
      return Status::OK();
      });
  if (!loop_status.ok()) return loop_status;
  return model;
}

}  // namespace haten2
