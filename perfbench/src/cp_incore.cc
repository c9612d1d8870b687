// cp-incore-zipf: rank-16 CP-ALS with in-core CSF contraction on a skewed
// (Zipf-popularity) tensor whose COO form plus three CSF layouts exceed the
// last-level cache. The MapReduce engine runs no job here; the time is
// layout build, CSF MTTKRP, the ContractCache lookup, the fit pass and the
// driver's dense solve.
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/parafac.h"
#include "linalg/linalg.h"
#include "linalg/sparse_kernels.h"
#include "mapreduce/engine.h"
#include "tensor/models.h"
#include "tensor/tensor_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace haten2;

constexpr int64_t kRank = 16;
constexpr int kIterations = 3;
const std::vector<int64_t> kDims = {100000, 100000, 2000};
constexpr int64_t kDraws = 2450000;
constexpr double kZipfExponent = 1.05;
constexpr int kReplays = 3;

ClusterConfig Config() {
  ClusterConfig config;  // the CLI's 40-machine default
  config.num_threads = 2;
  config.contraction = "incore";
  return config;
}

// fit = 1 − ‖X − M‖ / ‖X‖, evaluated directly from the entries and the
// factor Grams, independently of KruskalFit.
double IndependentFit(const SparseTensor& x, const KruskalModel& model) {
  const int order = x.order();
  const int64_t rank = model.rank();
  double x_sq = 0.0;
  double inner = 0.0;
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const double v = x.value(e);
    x_sq += v * v;
    double m = 0.0;
    for (int64_t r = 0; r < rank; ++r) {
      double p = model.lambda[static_cast<size_t>(r)];
      for (int n = 0; n < order; ++n) {
        p *= model.factors[static_cast<size_t>(n)](x.index(e, n), r);
      }
      m += p;
    }
    inner += v * m;
  }
  double model_sq = 0.0;
  std::vector<DenseMatrix> grams;
  for (const DenseMatrix& f : model.factors) grams.push_back(Gram(f));
  for (int64_t r = 0; r < rank; ++r) {
    for (int64_t s = 0; s < rank; ++s) {
      double p = model.lambda[static_cast<size_t>(r)] *
                 model.lambda[static_cast<size_t>(s)];
      for (const DenseMatrix& g : grams) p *= g(r, s);
      model_sq += p;
    }
  }
  const double resid_sq = std::max(0.0, x_sq - 2.0 * inner + model_sq);
  return 1.0 - std::sqrt(resid_sq / x_sq);
}

// Bytes one CsfMttkrp call touches by its own access pattern ("computed",
// not measured): per rank block, every entry reads its value, inner index
// and an inner-factor row block; every fiber reads its bounds, outer
// coordinates and outer-factor row blocks; every slice reads its bounds and
// writes its output row block.
double CsfMttkrpComputedBytes(const CsfLayout& layout, int64_t rank) {
  const double outer = static_cast<double>(layout.num_streams - 1);
  double bytes = 0.0;
  for (int64_t r0 = 0; r0 < rank; r0 += 64) {
    const double rb = static_cast<double>(std::min<int64_t>(64, rank - r0));
    bytes += static_cast<double>(layout.nnz()) * (16.0 + 8.0 * rb);
    bytes += static_cast<double>(layout.num_fibers()) *
             (8.0 + 8.0 * outer + 8.0 * outer * rb);
    bytes += static_cast<double>(layout.num_slices()) * (8.0 + 8.0 * rb);
  }
  return bytes;
}

// One ALS iteration's per-mode layer calls, replayed the way
// Haten2ParafacAls makes them, each inside its own span.
Status ReplayIteration(Engine* engine, const SparseTensor& x,
                       KruskalModel model, ContractCache* cache,
                       Tracer* tracer) {
  Tracer::Scope iteration(tracer, "replay.iteration");
  const int order = x.order();
  std::vector<DenseMatrix> grams;
  for (const DenseMatrix& f : model.factors) grams.push_back(Gram(f));
  for (int n = 0; n < order; ++n) {
    Result<SliceBlocks> y = Status::Internal("unset");
    {
      Tracer::Scope span(tracer, "core.contract");
      y = MultiModeContract(engine, x, model.FactorPtrs(), n,
                            MergeKind::kPairwise, Variant::kDri, cache);
    }
    HATEN2_RETURN_IF_ERROR(y.status());
    DenseMatrix mttkrp;
    {
      Tracer::Scope span(tracer, "core.to_dense");
      mttkrp = y->ToDenseMatrix();
    }
    Tracer::Scope span(tracer, "linalg.dense_solve");
    DenseMatrix v(kRank, kRank);
    v.Fill(1.0);
    for (int m = 0; m < order; ++m) {
      if (m == n) continue;
      for (int64_t r = 0; r < kRank; ++r) {
        for (int64_t s = 0; s < kRank; ++s) {
          v(r, s) *= grams[static_cast<size_t>(m)](r, s);
        }
      }
    }
    HATEN2_ASSIGN_OR_RETURN(DenseMatrix updated, SolveRightPinv(mttkrp, v));
    NormalizeColumns(&updated, &model.lambda);
    model.factors[static_cast<size_t>(n)] = std::move(updated);
    grams[static_cast<size_t>(n)] = Gram(model.factors[static_cast<size_t>(n)]);
  }
  Tracer::Scope span(tracer, "tensor.kruskal_fit");
  return KruskalFit(x, model).status();
}

}  // namespace

void RunCpIncoreZipf(const RunOptions& opt, Tracer* tracer, Report* report) {
  Result<SparseTensor> generated =
      ZipfTensor(kDims, kDraws, kZipfExponent, opt.seed);
  if (!report->AttemptStatus(generated.status(), "generate input")) return;
  Result<std::string> path = WriteInput(*generated, opt.workdir, "cp");
  generated = Status::Internal("released");
  if (!report->AttemptStatus(path.status(), "write input")) return;
  ResetPeakRssAfterInputs(report);

  // Set-up as a CLI run pays it: read + canonicalize + engine construction.
  std::vector<double> setup_s;
  SparseTensor x;
  std::unique_ptr<Engine> engine;
  while (MoreSetups(setup_s)) {
    engine.reset();
    x = SparseTensor();
    Tracer::Scope setup(tracer, "setup");
    Result<SparseTensor> loaded = LoadInput(*path, tracer);
    if (!report->AttemptStatus(loaded.status(), "read input")) return;
    x = std::move(loaded).value();
    engine = std::make_unique<Engine>(Config());
    setup_s.push_back(setup.Stop());
  }
  report->Info("nnz", std::to_string(x.nnz()));
  std::printf("cp-incore-zipf: %lldx%lldx%lld, %lld stored nnz, rank %lld, "
              "%d iterations per decomposition\n",
              (long long)kDims[0], (long long)kDims[1], (long long)kDims[2],
              (long long)x.nnz(), (long long)kRank, kIterations);

  Haten2Options options;
  options.variant = Variant::kDri;
  options.max_iterations = kIterations;
  options.tolerance = -1.0;  // convergence test off: fixed iteration count
  options.seed = opt.seed;

  std::vector<double> decompose_s, first_iter_s, steady_iter_s;
  std::unique_ptr<ContractCache> cache;
  KruskalModel model;
  const double start = NowSeconds();
  while (MoreReps(start, opt.seconds, decompose_s)) {
    DecompositionTrace trace;
    cache = std::make_unique<ContractCache>();
    options.trace = &trace;
    options.contract_cache = cache.get();
    Result<KruskalModel> fitted = Status::Internal("unset");
    {
      Tracer::Scope span(tracer, "decompose");
      fitted = Haten2ParafacAls(engine.get(), x, kRank, options);
      decompose_s.push_back(span.Stop());
    }
    if (!report->AttemptStatus(fitted.status(), "Haten2ParafacAls")) return;
    model = std::move(fitted).value();
    SplitIterations(trace, 0, &first_iter_s, &steady_iter_s);
    report->RecordCounts(
        {{"iterations", static_cast<double>(trace.iterations.size())},
         {"layout_hits", static_cast<double>(cache->layout_hits())},
         {"layout_misses", static_cast<double>(cache->layout_misses())},
         {"engine_jobs", static_cast<double>(
                             engine->PipelineSnapshot().NumJobs())}});
    engine->ClearPipeline();
  }
  SetEndToEnd(report, setup_s, decompose_s, first_iter_s, steady_iter_s,
              PeakRssMiB());

  // Output checks (untimed).
  const double fit = IndependentFit(x, model);
  report->Attempt(std::fabs(fit - model.fit) <= 1e-9, "fit recomputation",
                  "driver fit " + std::to_string(model.fit) +
                      " vs independent " + std::to_string(fit));
  {
    ContractCache check_cache;
    Result<SliceBlocks> y =
        MultiModeContract(engine.get(), x, model.FactorPtrs(), 0,
                          MergeKind::kPairwise, Variant::kDri, &check_cache);
    Result<DenseMatrix> ref = Mttkrp(x, model.FactorPtrs(), 0);
    bool ok = y.ok() && ref.ok();
    double worst = 0.0, scale = 0.0;
    if (ok) {
      DenseMatrix got = y->ToDenseMatrix();
      ok = got.rows() == ref->rows() && got.cols() == ref->cols();
      for (int64_t i = 0; ok && i < got.rows(); ++i) {
        for (int64_t r = 0; r < got.cols(); ++r) {
          worst = std::max(worst, std::fabs(got(i, r) - (*ref)(i, r)));
          scale = std::max(scale, std::fabs((*ref)(i, r)));
        }
      }
    }
    // Both sum the same products in different orders: 1e-10 relative.
    report->Attempt(ok && worst <= 1e-10 * scale,
                    "MultiModeContract matches tensor_ops Mttkrp",
                    "max abs diff " + std::to_string(worst));
  }

  if (!opt.trace) return;

  // ---- traced run: per-layer replay on the final factors ----
  report->Set("tensor.load_s", Median(tracer->Durations("tensor.load")), "s",
              tracer->Count("tensor.load"));
  report->Set("core.cache_layout_hit_ratio",
              static_cast<double>(cache->layout_hits()) /
                  static_cast<double>(cache->layout_hits() +
                                      cache->layout_misses()),
              "ratio", cache->layout_hits() + cache->layout_misses());

  for (int i = 0; i < kReplays; ++i) {
    report->AttemptStatus(
        ReplayIteration(engine.get(), x, model, cache.get(), tracer),
        "replayed iteration");
  }
  const double replays = kReplays;
  const double contract = tracer->InclusiveSeconds("core.contract") / replays;
  const double to_dense = tracer->InclusiveSeconds("core.to_dense") / replays;
  const double solve = tracer->InclusiveSeconds("linalg.dense_solve") / replays;
  const double fit_s = tracer->InclusiveSeconds("tensor.kruskal_fit") / replays;
  report->Set("core.contract_s", contract, "s", kReplays);
  report->Set("core.to_dense_s", to_dense, "s", kReplays);
  report->Set("linalg.dense_solve_s", solve, "s", kReplays);
  report->Set("tensor.kruskal_fit_s", fit_s, "s", kReplays);
  const double steady = Median(steady_iter_s);
  const double unattributed = steady - (contract + to_dense + solve + fit_s);
  report->Set("core.unattributed_s", unattributed, "s", kReplays);
  report->Set("core.unattributed_frac", unattributed / steady, "ratio",
              kReplays);

  // Sub-layers of core.contract, timed one public call at a time.
  const int order = x.order();
  double mttkrp_bytes = 0.0;
  for (int i = 0; i < kReplays; ++i) {
    for (int n = 0; n < order; ++n) {
      {
        Tracer::Scope span(tracer, "linalg.fingerprint");
        volatile uint64_t fp = TensorFingerprint(x);
        (void)fp;
      }
      Result<std::shared_ptr<const CsfLayout>> layout =
          Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "core.cache_lookup");
        layout = cache->Layout(x, n);
      }
      if (!report->AttemptStatus(layout.status(), "cache lookup")) return;
      std::vector<const DenseMatrix*> cfactors;
      for (int c : (*layout)->cmodes) {
        cfactors.push_back(&model.factors[static_cast<size_t>(c)]);
      }
      std::vector<std::vector<double>> rows;
      {
        Tracer::Scope span(tracer, "linalg.csf_mttkrp");
        report->AttemptStatus(
            CsfMttkrp(**layout, cfactors, static_cast<int>(kRank), &rows),
            "CsfMttkrp");
      }
      mttkrp_bytes += CsfMttkrpComputedBytes(**layout, kRank);
      Tracer::Scope span(tracer, "linalg.csf_build");
      report->AttemptStatus(BuildCsfLayout(x, n).status(), "BuildCsfLayout");
    }
  }
  const double mttkrp_s =
      tracer->InclusiveSeconds("linalg.csf_mttkrp") / replays;
  const double mttkrp_gbps = mttkrp_bytes / replays / mttkrp_s / 1e9;
  report->Set("linalg.fingerprint_s",
              tracer->InclusiveSeconds("linalg.fingerprint") / replays, "s",
              kReplays);
  report->Set("core.cache_lookup_s",
              tracer->InclusiveSeconds("core.cache_lookup") / replays, "s",
              kReplays);
  report->Set("linalg.csf_mttkrp_s", mttkrp_s, "s", kReplays);
  report->Set("linalg.csf_mttkrp_gbps", mttkrp_gbps, "GB/s", kReplays);
  report->Set("linalg.csf_build_s",
              tracer->InclusiveSeconds("linalg.csf_build") / replays, "s",
              kReplays);

  CopyCeiling ceiling;
  {
    Tracer::Scope span(tracer, "linalg.stream_copy");
    ceiling = MeasureCopyCeiling();
  }
  report->Set("linalg.stream_copy_gbps", ceiling.gbps, "GB/s", 5);
  report->Set("linalg.mttkrp_ceiling_frac", mttkrp_gbps / ceiling.gbps,
              "ratio", kReplays);
  report->Info("copy_array_bytes", std::to_string(ceiling.array_bytes));
  std::printf("copy ceiling: two %.0f MiB arrays against a %.0f MiB LLC; "
              "CSF MTTKRP bytes are computed from the layout, not measured\n",
              ceiling.array_bytes / 1048576.0, ceiling.llc_bytes / 1048576.0);
}

}  // namespace perfbench
