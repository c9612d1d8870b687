#ifndef HATEN2_CORE_ALS_HARNESS_H_
#define HATEN2_CORE_ALS_HARNESS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/contract.h"
#include "core/parafac.h"  // Haten2Options
#include "mapreduce/engine.h"
#include "mapreduce/stats.h"
#include "tensor/models.h"
#include "util/result.h"

namespace haten2 {

/// \brief Shape gate shared by checkpoint resume and warm starts: one
/// factor per mode of `dims`, factor m of shape dims[m] x cols[m]. `what`
/// ("checkpoint", "warm-start") names the model's source in the error.
Status CheckFactorShapes(const std::vector<DenseMatrix>& factors,
                         const std::vector<int64_t>& dims,
                         const std::vector<int64_t>& cols, const char* what);

/// \brief The outer-iteration loop shared by every decomposition driver:
/// runs the per-iteration body up to max_iterations times, captures one
/// IterationStats per iteration into the trace, stops when the metric
/// converges, and owns the run's checkpoint/resume protocol.
///
/// A driver binds the model it fits (Kruskal or Tucker) plus the history
/// the manifest persists, calls Restore() — which either continues a
/// checkpointed run or tells the driver to initialize a fresh one — and
/// then Run()s its iteration body. The harness owns:
///
///   - **Job attribution by id.** Before each iteration it takes the
///     engine's NextJobId() watermark and afterwards snapshots
///     PipelineSince(watermark) — jobs (and plans) belong to the iteration
///     whose id range they fall in, which stays correct when a PlanScheduler
///     completes jobs out of submission order.
///   - **Convergence gating.** The test fires only from the second metric
///     on (`prev >= 0` gate, so e.g. a negative PARAFAC fit never
///     converges), comparing |metric − prev| against
///     tolerance × tolerance_scale, strictly or inclusively per
///     converge_on_equal. These reproduce the legacy drivers' semantics
///     bit-for-bit; do not "simplify" them.
///   - **Checkpoint and resume** (Haten2Options::checkpoint / resume_from).
///     After every `every_n_iterations`-th completed iteration that neither
///     converged nor was the last (a finished run returns its model; there
///     is nothing left to protect), it writes a manifest carrying the
///     method, fingerprint, iteration, convergence state and history, with
///     the bound model. A write failure fails the run: the caller asked for
///     durability. Restore() is the matching resume gate and verbatim
///     restore; a resumed run numbers its iterations, trace entries and
///     history appends exactly like the uninterrupted one.
///
/// A failed iteration is traced with the jobs that ran before the failure
/// (the paper's o.o.m. post-mortems keep their numbers), then its status is
/// returned.
///
/// The harness also owns the per-decomposition ContractCache: bodies pass
/// cache() to MultiModeContract for contractions of the iteration-invariant
/// input tensor (and nullptr for tensors rebuilt each iteration, like the
/// EM residual).
class AlsHarness {
 public:
  struct Options {
    /// Manifest method ("parafac", "tucker-nn", "parafac-em", ...) and the
    /// run's CheckpointFingerprint: a resume must match both.
    std::string method;
    uint64_t fingerprint = 0;
    /// The metric delta is compared against tolerance * tolerance_scale
    /// (Tucker scales by ||X||; everyone else leaves it 1).
    double tolerance_scale = 1.0;
    /// false: converge when |Δ| <  bound (PARAFAC-style strict test);
    /// true:  converge when |Δ| <= bound (Tucker's inclusive test).
    bool converge_on_equal = false;
  };

  /// The iteration body: runs one full ALS sweep (iteration numbers start
  /// at 1). It fills the model-quality fields of `stats` (fit, ||G||, λ,
  /// sketch annotations; the harness sets iteration, wall_seconds and
  /// pipeline) and sets `metric` to the scalar the convergence test
  /// compares (fit for PARAFAC, ||G|| for Tucker). Leaving `metric` unset
  /// skips the test, so the loop runs to max_iterations — for drivers whose
  /// metric is optional (PARAFAC with compute_fit off). A body that fails
  /// mid-iteration leaves the fields it never reached unset — exactly what
  /// the trace should record.
  using IterationBody = std::function<Status(
      int iteration, IterationStats* stats, std::optional<double>* metric)>;

  /// `run` supplies max_iterations, tolerance, trace, contract_cache,
  /// checkpoint and resume_from. `model` and `history` (the fit history for
  /// Kruskal runs, the ||G|| history for Tucker runs) are what checkpoints
  /// persist and Restore() fills; not owned, must outlive the harness.
  AlsHarness(Engine* engine, const Haten2Options& run, Options options,
             KruskalModel* model, std::vector<double>* history)
      : engine_(engine), run_(run), options_(std::move(options)),
        kruskal_(model), history_(history) {}
  AlsHarness(Engine* engine, const Haten2Options& run, Options options,
             TuckerModel* model, std::vector<double>* history)
      : engine_(engine), run_(run), options_(std::move(options)),
        tucker_(model), history_(history) {}

  AlsHarness(const AlsHarness&) = delete;
  AlsHarness& operator=(const AlsHarness&) = delete;

  /// The resume gate; call once, before Run(). Without resume_from returns
  /// false: a fresh run, the driver initializes the model. Otherwise the
  /// checkpoint must pass ValidateCheckpointForResume (method, model kind,
  /// fingerprint; kFailedPrecondition) and match the expected shape —
  /// factor m is dims[m] x cols[m], plus one λ weight per column (Kruskal)
  /// or core dims == cols (Tucker); kInvalidArgument. Then the factors and
  /// λ/core, the history and the model's iteration counter are restored
  /// verbatim, Run() continues after the checkpoint's iteration from its
  /// convergence state, and the result is true.
  Result<bool> Restore(const std::vector<int64_t>& dims,
                       const std::vector<int64_t>& cols);

  /// Runs the loop. Returns OK when it converged or exhausted
  /// max_iterations, otherwise the first iteration or checkpoint failure.
  Status Run(const IterationBody& body);

  /// Input-scan cache for the decomposition's invariant tensor: the
  /// caller-provided Haten2Options::contract_cache when set (incremental
  /// refit keeps one alive across epochs), else a private
  /// per-decomposition cache.
  ContractCache* cache() {
    return run_.contract_cache != nullptr ? run_.contract_cache : &cache_;
  }

 private:
  Status WriteCheckpoint(int iteration, double prev_metric) const;

  Engine* engine_;
  Haten2Options run_;
  Options options_;
  KruskalModel* kruskal_ = nullptr;
  TuckerModel* tucker_ = nullptr;
  std::vector<double>* history_;
  /// Where Run() picks up: 0 and the cold-start sentinel -1 for a fresh
  /// run; the checkpoint's iteration and exact prev-metric double after a
  /// resume, so the first resumed convergence test is bit-identical to the
  /// uninterrupted one.
  int start_iteration_ = 0;
  double start_metric_ = -1.0;
  ContractCache cache_;
};

}  // namespace haten2

#endif  // HATEN2_CORE_ALS_HARNESS_H_
