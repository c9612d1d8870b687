#include "core/als_harness.h"

#include <cmath>
#include <utility>

#include "core/checkpoint.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {

Status CheckFactorShapes(const std::vector<DenseMatrix>& factors,
                         const std::vector<int64_t>& dims,
                         const std::vector<int64_t>& cols, const char* what) {
  if (factors.size() != dims.size()) {
    return Status::InvalidArgument(
        StrFormat("%s model has %zu factors for an order-%zu tensor", what,
                  factors.size(), dims.size()));
  }
  for (size_t m = 0; m < dims.size(); ++m) {
    if (factors[m].rows() != dims[m] || factors[m].cols() != cols[m]) {
      return Status::InvalidArgument(StrFormat(
          "%s factor %zu is %lldx%lld, expected %lldx%lld", what, m,
          (long long)factors[m].rows(), (long long)factors[m].cols(),
          (long long)dims[m], (long long)cols[m]));
    }
  }
  return Status::OK();
}

Result<bool> AlsHarness::Restore(const std::vector<int64_t>& dims,
                                 const std::vector<int64_t>& cols) {
  if (run_.resume_from == nullptr) return false;
  const LoadedCheckpoint& ckpt = *run_.resume_from;
  const bool kruskal = kruskal_ != nullptr;
  HATEN2_RETURN_IF_ERROR(ValidateCheckpointForResume(
      ckpt.manifest, options_.method, kruskal ? "kruskal" : "tucker",
      options_.fingerprint));
  HATEN2_RETURN_IF_ERROR(CheckFactorShapes(
      kruskal ? ckpt.kruskal.factors : ckpt.tucker.factors, dims, cols,
      "checkpoint"));
  // Verbatim restore — no defensive QR. The checkpoint's text format
  // round-trips doubles exactly, and re-orthonormalizing already-orthonormal
  // Tucker factors would perturb them in the last ulp, breaking the resumed
  // run's bit-identity with the uninterrupted one. The multiplicative NTF
  // updates rescale the core as well as the factors, so the core comes back
  // too.
  if (kruskal) {
    // One λ weight per factor column (every Kruskal factor is I_m x R).
    if (static_cast<int64_t>(ckpt.kruskal.lambda.size()) != cols.front()) {
      return Status::InvalidArgument(
          "checkpoint lambda does not match the rank");
    }
    kruskal_->lambda = ckpt.kruskal.lambda;
    kruskal_->factors = ckpt.kruskal.factors;
    kruskal_->iterations = ckpt.manifest.iteration;
    *history_ = ckpt.manifest.fit_history;
  } else {
    if (ckpt.tucker.core.dims() != cols) {
      return Status::InvalidArgument(
          "checkpoint core does not match the core dims");
    }
    tucker_->factors = ckpt.tucker.factors;
    tucker_->core = ckpt.tucker.core;
    tucker_->iterations = ckpt.manifest.iteration;
    *history_ = ckpt.manifest.core_norm_history;
  }
  start_iteration_ = ckpt.manifest.iteration;
  start_metric_ = ckpt.manifest.metric;
  return true;
}

Status AlsHarness::WriteCheckpoint(int iteration, double prev_metric) const {
  CheckpointManifest m;
  m.method = options_.method;
  m.model_kind = kruskal_ != nullptr ? "kruskal" : "tucker";
  m.fingerprint = options_.fingerprint;
  m.iteration = iteration;
  m.metric = prev_metric;
  (kruskal_ != nullptr ? m.fit_history : m.core_norm_history) = *history_;
  return CheckpointWriter(*run_.checkpoint).Write(m, kruskal_, tucker_);
}

Status AlsHarness::Run(const IterationBody& body) {
  const int checkpoint_every =
      run_.checkpoint != nullptr ? run_.checkpoint->every_n_iterations : 0;
  double prev_metric = start_metric_;
  for (int iter = start_iteration_ + 1; iter <= run_.max_iterations; ++iter) {
    const int64_t first_job_id = engine_->NextJobId();
    WallTimer iter_timer;
    IterationStats stats;
    std::optional<double> metric;
    Status iter_status = body(iter, &stats, &metric);
    if (run_.trace != nullptr) {
      stats.iteration = iter;
      stats.wall_seconds = iter_timer.ElapsedSeconds();
      stats.pipeline = engine_->PipelineSince(first_job_id);
      run_.trace->iterations.push_back(std::move(stats));
    }
    if (!iter_status.ok()) return iter_status;
    bool converged = false;
    if (metric.has_value()) {
      const double bound = run_.tolerance * options_.tolerance_scale;
      if (prev_metric >= 0.0) {
        const double delta = std::fabs(*metric - prev_metric);
        converged =
            options_.converge_on_equal ? delta <= bound : delta < bound;
      }
      if (!converged) prev_metric = *metric;
    }
    if (converged) break;
    if (checkpoint_every > 0 && iter % checkpoint_every == 0 &&
        iter < run_.max_iterations) {
      HATEN2_RETURN_IF_ERROR(WriteCheckpoint(iter, prev_metric));
    }
  }
  return Status::OK();
}

}  // namespace haten2
