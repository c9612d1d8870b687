#include "core/tucker.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/als_harness.h"
#include "core/records.h"
#include "linalg/linalg.h"
#include "util/random.h"
#include "util/string_util.h"

namespace haten2 {

/// Extracts `count` leading left singular vectors of the implicit matrix
/// whose rows are y's slice blocks, via the eigendecomposition of the small
/// Gram matrix Y₍ₙ₎ᵀY₍ₙ₎. Deficient directions are completed with
/// orthonormalized canonical basis vectors (dead components).
Result<DenseMatrix> TuckerLeadingFactor(const SliceBlocks& y, int64_t count) {
  const int64_t block = y.BlockSize();
  if (count > y.free_dim) {
    return Status::InvalidArgument(
        "core dimension exceeds the tensor mode size");
  }
  DenseMatrix gram = y.GramOfRows();
  HATEN2_ASSIGN_OR_RETURN(EigResult eig, SymmetricEigen(gram));
  double smax_sq = eig.eigenvalues.empty()
                       ? 0.0
                       : std::max(eig.eigenvalues[0], 0.0);
  // Eigenvalues of the Gram matrix carry ~1e-16 relative noise, so only
  // directions above ~1e-7 in singular-value space (1e-14 in eigenvalue
  // space) are numerically trustworthy.
  double cutoff_sq = smax_sq * 1e-14;

  DenseMatrix a(y.free_dim, count);
  int64_t valid = 0;
  for (int64_t p = 0; p < std::min(count, block); ++p) {
    double ev = std::max(eig.eigenvalues[static_cast<size_t>(p)], 0.0);
    if (ev <= cutoff_sq || ev == 0.0) break;
    double inv_s = 1.0 / std::sqrt(ev);
    double norm_sq = 0.0;
    for (int64_t k = 0; k < y.num_rows(); ++k) {
      const double* row = y.row(k);
      double dot = 0.0;
      for (int64_t c = 0; c < block; ++c) {
        dot += row[c] * eig.eigenvectors(c, p);
      }
      double value = dot * inv_s;
      a(y.slice_ids[static_cast<size_t>(k)], p) = value;
      norm_sq += value * value;
    }
    // Guard against numerically unreliable directions; re-normalize drift.
    double norm = std::sqrt(norm_sq);
    if (norm < 0.5 || norm > 2.0) {
      for (int64_t slice : y.slice_ids) a(slice, p) = 0.0;
      break;
    }
    for (int64_t slice : y.slice_ids) a(slice, p) /= norm;
    ++valid;
  }
  // Complete any deficient columns to keep A orthonormal.
  int64_t next_basis = 0;
  for (int64_t p = valid; p < count; ++p) {
    bool placed = false;
    while (next_basis < y.free_dim && !placed) {
      std::vector<double> cand(static_cast<size_t>(y.free_dim), 0.0);
      cand[static_cast<size_t>(next_basis)] = 1.0;
      ++next_basis;
      for (int64_t c = 0; c < p; ++c) {
        double dot = 0.0;
        for (int64_t i = 0; i < y.free_dim; ++i) {
          dot += cand[static_cast<size_t>(i)] * a(i, c);
        }
        for (int64_t i = 0; i < y.free_dim; ++i) {
          cand[static_cast<size_t>(i)] -= dot * a(i, c);
        }
      }
      double norm = 0.0;
      for (double v : cand) norm += v * v;
      norm = std::sqrt(norm);
      if (norm > 1e-8) {
        for (int64_t i = 0; i < y.free_dim; ++i) {
          a(i, p) = cand[static_cast<size_t>(i)] / norm;
        }
        placed = true;
      }
    }
    if (!placed) {
      return Status::Internal("failed to complete an orthonormal basis");
    }
  }
  return a;
}

Result<DenseTensor> TuckerCoreFromBlocks(const SliceBlocks& last_y,
                                         const DenseMatrix& a_last,
                                         const std::vector<int64_t>& core_dims,
                                         int last_mode) {
  DenseMatrix core_unfolded(core_dims[static_cast<size_t>(last_mode)],
                            last_y.BlockSize());
  for (int64_t k = 0; k < last_y.num_rows(); ++k) {
    const double* row = last_y.row(k);
    const int64_t slice = last_y.slice_ids[static_cast<size_t>(k)];
    for (int64_t p = 0; p < core_unfolded.rows(); ++p) {
      double w = a_last(slice, p);
      if (w == 0.0) continue;
      double* crow = core_unfolded.RowPtr(p);
      for (int64_t c = 0; c < core_unfolded.cols(); ++c) {
        crow[c] += w * row[c];
      }
    }
  }
  return DenseTensor::Fold(core_unfolded, last_mode, core_dims);
}

Status ValidateTuckerProblem(const Engine* engine, const SparseTensor& x,
                             const std::vector<int64_t>& core_dims,
                             const char* driver) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (x.order() < 2 || x.order() > kMaxMrOrder) {
    return Status::InvalidArgument(StrFormat(
        "%s supports orders 2..%d, got %d", driver, kMaxMrOrder, x.order()));
  }
  if (x.nnz() == 0) {
    return Status::InvalidArgument("cannot decompose an all-zero tensor");
  }
  if (static_cast<int>(core_dims.size()) != x.order()) {
    return Status::InvalidArgument("core_dims must have one entry per mode");
  }
  for (int m = 0; m < x.order(); ++m) {
    if (core_dims[static_cast<size_t>(m)] <= 0 ||
        core_dims[static_cast<size_t>(m)] > x.dim(m)) {
      return Status::InvalidArgument(StrFormat(
          "core dimension %lld invalid for mode %d of size %lld",
          (long long)core_dims[static_cast<size_t>(m)], m,
          (long long)x.dim(m)));
    }
  }
  return Status::OK();
}

Status InitTuckerFactors(const SparseTensor& x,
                         const std::vector<int64_t>& core_dims,
                         const Haten2Options& options,
                         std::vector<DenseMatrix>* factors) {
  const int order = x.order();
  factors->reserve(static_cast<size_t>(order));
  if (options.initial_tucker != nullptr) {
    const std::vector<DenseMatrix>& init = options.initial_tucker->factors;
    HATEN2_RETURN_IF_ERROR(
        CheckFactorShapes(init, x.dims(), core_dims, "warm-start"));
    for (const DenseMatrix& f : init) {
      // Re-orthonormalize defensively: checkpoints round-trip exactly, but
      // hand-built warm starts may not have orthonormal columns, which the
      // ||G||-based fit requires.
      HATEN2_ASSIGN_OR_RETURN(QrResult qr, QrDecompose(f));
      factors->push_back(std::move(qr.q));
    }
    return Status::OK();
  }
  Rng rng(options.seed);
  for (int m = 0; m < order; ++m) {
    DenseMatrix random = DenseMatrix::RandomNormal(
        x.dim(m), core_dims[static_cast<size_t>(m)], &rng);
    HATEN2_ASSIGN_OR_RETURN(QrResult qr, QrDecompose(random));
    factors->push_back(std::move(qr.q));
  }
  return Status::OK();
}

Result<TuckerModel> Haten2TuckerAls(Engine* engine, const SparseTensor& x,
                                    std::vector<int64_t> core_dims,
                                    const Haten2Options& options) {
  HATEN2_RETURN_IF_ERROR(
      ValidateTuckerProblem(engine, x, core_dims, "HaTen2-Tucker"));
  const int order = x.order();
  const uint64_t fingerprint =
      CheckpointFingerprint("tucker", options.variant, options.seed,
                            options.tolerance, core_dims, x);

  TuckerModel model;
  AlsHarness harness(engine, options,
                     {.method = "tucker",
                      .fingerprint = fingerprint,
                      .tolerance_scale = x.FrobeniusNorm(),
                      .converge_on_equal = true},
                     &model, &model.core_norm_history);
  HATEN2_ASSIGN_OR_RETURN(bool resumed, harness.Restore(x.dims(), core_dims));
  if (!resumed) {
    HATEN2_RETURN_IF_ERROR(
        InitTuckerFactors(x, core_dims, options, &model.factors));
  }

  Status loop_status = harness.Run(
      [&](int iter, IterationStats* stats,
          std::optional<double>* metric) -> Status {
      SliceBlocks last_y;
      for (int n = 0; n < order; ++n) {
        HATEN2_ASSIGN_OR_RETURN(
            SliceBlocks y,
            MultiModeContract(engine, x, model.FactorPtrs(), n,
                              MergeKind::kCross, options.variant,
                              harness.cache()));
        HATEN2_ASSIGN_OR_RETURN(
            DenseMatrix factor,
            TuckerLeadingFactor(y, core_dims[static_cast<size_t>(n)]));
        model.factors[static_cast<size_t>(n)] = std::move(factor);
        if (n == order - 1) last_y = std::move(y);
      }
      // Core: G = Y ×_{N-1} A⁽ᴺ⁻¹⁾ᵀ, i.e. G₍ₙ₎ = AᵀY₍ₙ₎ accumulated over
      // the sparse slice blocks, then folded.
      const int last = order - 1;
      HATEN2_ASSIGN_OR_RETURN(
          model.core,
          TuckerCoreFromBlocks(last_y,
                               model.factors[static_cast<size_t>(last)],
                               core_dims, last));
      model.iterations = iter;
      const double core_norm = model.core.FrobeniusNorm();
      model.core_norm_history.push_back(core_norm);
      stats->has_core_norm = true;
      stats->core_norm = core_norm;
      *metric = core_norm;
      return Status::OK();
      });
  if (!loop_status.ok()) return loop_status;
  HATEN2_ASSIGN_OR_RETURN(model.fit, TuckerFit(x, model));
  return model;
}

}  // namespace haten2
