// tucker-dataflow-uniform and tucker-dataflow-subprocess: DRI Tucker-HOOI
// through the MapReduce engine (two jobs per mode: IMHP + CrossMerge), on
// the in-process backend and on the forked worker gang. The paper's path:
// engine phases, record width and the driver-side eigensolve set the time;
// the CSF kernels, the ContractCache layouts and the CP fit are not called.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/tucker.h"
#include "linalg/linalg.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/engine.h"
#include "workload/random_tensor.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace haten2;

const std::vector<int64_t> kDims = {20000, 20000, 2000};
const std::vector<int64_t> kCore = {8, 8, 8};
constexpr int64_t kInProcessNnz = 300000;
// The subprocess transport moves every shuffled run over a socket; this
// size keeps one decomposition to seconds.
constexpr int64_t kSubprocessNnz = 20000;
constexpr int kSubprocessWorkers = 3;
constexpr int kIterations = 3;
constexpr int kReplays = 2;

ClusterConfig Config(bool subprocess, const std::string& spill_dir) {
  ClusterConfig config;  // the CLI's 40-machine default
  config.contraction = "dataflow";
  config.max_concurrent_jobs = 1;
  config.spill_directory = spill_dir;
  if (subprocess) {
    // Coordinator + 3 workers stay within the 4 cores.
    config.num_threads = 1;
    config.backend = "subprocess";
    config.num_workers = kSubprocessWorkers;
  } else {
    config.num_threads = 2;
  }
  return config;
}

uint64_t WireBytes(const Engine& engine) {
  uint64_t total = 0;
  for (const distributed::WorkerStats& w : engine.WorkerStatsSnapshot()) {
    total += w.wire_bytes_sent + w.wire_bytes_received;
  }
  return total;
}

int64_t Restarts(const Engine& engine) {
  int64_t total = 0;
  for (const distributed::WorkerStats& w : engine.WorkerStatsSnapshot()) {
    total += w.restarts;
  }
  return total;
}

// G = X ×₀ A₀ᵀ ×₁ A₁ᵀ ×₂ A₂ᵀ straight from the entries, independently of
// the dataflow plan; returns max |G_ref − G| / max |G_ref|.
double CoreMismatch(const SparseTensor& x, const TuckerModel& model) {
  const DenseMatrix& a = model.factors[0];
  const DenseMatrix& b = model.factors[1];
  const DenseMatrix& c = model.factors[2];
  std::vector<double> ref(static_cast<size_t>(kCore[0] * kCore[1] * kCore[2]),
                          0.0);
  for (int64_t e = 0; e < x.nnz(); ++e) {
    const double v = x.value(e);
    const double* ra = a.RowPtr(x.index(e, 0));
    const double* rb = b.RowPtr(x.index(e, 1));
    const double* rc = c.RowPtr(x.index(e, 2));
    size_t o = 0;
    for (int64_t p = 0; p < kCore[0]; ++p) {
      for (int64_t q = 0; q < kCore[1]; ++q) {
        const double w = v * ra[p] * rb[q];
        for (int64_t r = 0; r < kCore[2]; ++r) ref[o++] += w * rc[r];
      }
    }
  }
  double worst = 0.0, scale = 0.0;
  const std::vector<double>& got = model.core.data();
  if (got.size() != ref.size()) return 1e300;
  for (size_t i = 0; i < ref.size(); ++i) {
    worst = std::max(worst, std::fabs(ref[i] - got[i]));
    scale = std::max(scale, std::fabs(ref[i]));
  }
  return worst / std::max(scale, 1e-300);
}

bool BitIdentical(const TuckerModel& a, const TuckerModel& b) {
  if (a.factors.size() != b.factors.size()) return false;
  for (size_t m = 0; m < a.factors.size(); ++m) {
    const DenseMatrix& fa = a.factors[m];
    const DenseMatrix& fb = b.factors[m];
    if (fa.rows() != fb.rows() || fa.cols() != fb.cols()) return false;
    if (std::memcmp(fa.data().data(), fb.data().data(),
                    fa.data().size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return a.core.data() == b.core.data();
}

}  // namespace

void RunTuckerDataflow(const RunOptions& opt, bool subprocess,
                       Tracer* tracer, Report* report) {
  RandomTensorSpec spec;
  spec.dims = kDims;
  spec.nnz = subprocess ? kSubprocessNnz : kInProcessNnz;
  spec.seed = opt.seed;
  Result<SparseTensor> generated = GenerateRandomTensor(spec);
  if (!report->AttemptStatus(generated.status(), "generate input")) return;
  Result<std::string> path = WriteInput(*generated, opt.workdir, "tucker");
  generated = Status::Internal("released");
  if (!report->AttemptStatus(path.status(), "write input")) return;
  ResetPeakRssAfterInputs(report);
  const std::string spill_dir = opt.workdir;

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
    engine = std::make_unique<Engine>(Config(subprocess, spill_dir));
    setup_s.push_back(setup.Stop());
  }
  const ClusterConfig config = engine->config();
  std::printf("%s: %lldx%lldx%lld, %lld stored nnz, core 8x8x8, "
              "%d iterations, %s backend%s\n",
              opt.workload.c_str(), (long long)kDims[0], (long long)kDims[1],
              (long long)kDims[2], (long long)x.nnz(), kIterations,
              config.backend.c_str(),
              subprocess ? ", 3 workers" : ", 2 engine threads");

  Haten2Options options;
  options.variant = Variant::kDri;
  options.max_iterations = kIterations;
  options.tolerance = -1.0;  // convergence test off: fixed iteration count
  options.seed = opt.seed;

  std::vector<double> decompose_s, first_iter_s, steady_iter_s;
  TuckerModel model;
  PipelineStats pipeline;
  // Wire bytes of the first decomposition in the process. They depend on
  // the process's heap history, not only on the input: the spill codec's
  // key prefix takes the first 8 bytes of the IMHP job's
  // std::pair<int32_t, int64_t> key, 4 of which are uninitialized padding,
  // and the varint deltas grow or shrink with them. Later decompositions in
  // one process differ by a few KB per GB, and a traced run, which
  // allocates more before its first decomposition, by some bytes. So they
  // are compared across runs of one seed in the same trace mode only.
  uint64_t wire_bytes = 0;
  double sim_makespan = 0.0;
  const double start = NowSeconds();
  while (MoreReps(start, opt.seconds, decompose_s)) {
    DecompositionTrace trace;
    options.trace = &trace;
    const int64_t first_job = engine->NextJobId();
    const uint64_t wire_before = WireBytes(*engine);
    Result<TuckerModel> fitted = Status::Internal("unset");
    {
      Tracer::Scope span(tracer, "decompose");
      fitted = Haten2TuckerAls(engine.get(), x, kCore, options);
      decompose_s.push_back(span.Stop());
    }
    if (!report->AttemptStatus(fitted.status(), "Haten2TuckerAls")) return;
    model = std::move(fitted).value();
    SplitIterations(trace, 0, &first_iter_s, &steady_iter_s);
    pipeline = engine->PipelineSince(first_job);
    if (decompose_s.size() == 1) {
      wire_bytes = WireBytes(*engine) - wire_before;
    }
    sim_makespan = CostModel(config).SimulatePipeline(pipeline);
    report->RecordCounts(
        {{"jobs", static_cast<double>(pipeline.NumJobs())},
         {"intermediate_records_max",
          static_cast<double>(pipeline.MaxIntermediateRecords())},
         {"intermediate_records_total",
          static_cast<double>(pipeline.TotalIntermediateRecords())},
         {"intermediate_bytes_total",
          static_cast<double>(pipeline.TotalIntermediateBytes())},
         {"sim_makespan_s", sim_makespan}});
    engine->ClearPipeline();
  }
  report->SetCount(opt.trace ? "wire_bytes_first_decomposition.traced"
                             : "wire_bytes_first_decomposition",
                   static_cast<double>(wire_bytes));
  SetEndToEnd(report, setup_s, decompose_s, first_iter_s, steady_iter_s,
              PeakRssMiB());
  // Simulated 40-machine seconds (the paper's metric), never wall seconds.
  report->Set("sim_makespan_s", sim_makespan, "sim_s",
              static_cast<int64_t>(decompose_s.size()));

  // Output checks (untimed).
  for (size_t m = 0; m < model.factors.size(); ++m) {
    report->Attempt(HasOrthonormalColumns(model.factors[m], 1e-8),
                    "factor " + std::to_string(m) + " orthonormal");
  }
  const double core_norm = model.core.FrobeniusNorm();
  report->Attempt(!model.core_norm_history.empty() &&
                      RelDiff(core_norm, model.core_norm_history.back()) <=
                          1e-12,
                  "||G|| matches the recorded value");
  const double mismatch = CoreMismatch(x, model);
  report->Attempt(mismatch <= 1e-9, "core matches X x_n A_n^T recomputation",
                  "relative mismatch " + std::to_string(mismatch));
  if (subprocess) {
    // The in-process twin of the same problem, untimed.
    Engine twin(Config(false, spill_dir));
    options.trace = nullptr;
    Result<TuckerModel> reference =
        Haten2TuckerAls(&twin, x, kCore, options);
    report->Attempt(reference.ok() && BitIdentical(model, *reference),
                    "subprocess factors bit-identical to in-process");
    report->Attempt(Restarts(*engine) == 0, "no worker restarts");
  }

  if (!opt.trace) return;

  // ---- traced run ----
  report->Set("tensor.load_s", Median(tracer->Durations("tensor.load")), "s",
              tracer->Count("tensor.load"));
  report->Set("mapreduce.jobs", static_cast<double>(pipeline.NumJobs()),
              "count", 1);
  report->Set("mapreduce.intermediate_records_max",
              static_cast<double>(pipeline.MaxIntermediateRecords()), "count",
              1);
  report->Set("mapreduce.intermediate_bytes_total",
              static_cast<double>(pipeline.TotalIntermediateBytes()), "bytes",
              1);
  if (subprocess) {
    report->Set("distributed.wire_bytes", static_cast<double>(wire_bytes),
                "bytes", 1);
    report->Set("distributed.wire_per_shuffle_byte",
                static_cast<double>(wire_bytes) /
                    static_cast<double>(pipeline.TotalIntermediateBytes()),
                "ratio", 1);
    report->Set("distributed.restarts",
                static_cast<double>(Restarts(*engine)), "count", 1);
  }

  // Replay steady iterations' per-mode layer calls on the final factors,
  // with the decoded tensor records already cached as in a steady iteration.
  ContractCache cache;
  cache.Records(engine.get(), x);
  const int order = x.order();
  const int64_t first_job = engine->NextJobId();
  for (int i = 0; i < kReplays; ++i) {
    TuckerModel replay = model;
    Tracer::Scope iteration(tracer, "replay.iteration");
    for (int n = 0; n < order; ++n) {
      Result<SliceBlocks> y = Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "core.contract");
        y = MultiModeContract(engine.get(), x, replay.FactorPtrs(), n,
                              MergeKind::kCross, Variant::kDri, &cache);
      }
      if (!report->AttemptStatus(y.status(), "replayed contraction")) return;
      Tracer::Scope span(tracer, "core.tucker_factor");
      Result<DenseMatrix> factor =
          TuckerLeadingFactor(*y, kCore[static_cast<size_t>(n)]);
      if (!report->AttemptStatus(factor.status(), "TuckerLeadingFactor")) {
        return;
      }
      replay.factors[static_cast<size_t>(n)] = std::move(factor).value();
      if (n == order - 1) {
        report->AttemptStatus(
            TuckerCoreFromBlocks(*y, replay.factors[static_cast<size_t>(n)],
                                 kCore, n)
                .status(),
            "TuckerCoreFromBlocks");
      }
    }
  }
  const PipelineStats replayed = engine->PipelineSince(first_job);
  const double replays = kReplays;
  double map_s = 0.0, shuffle_s = 0.0, reduce_s = 0.0, skew = 0.0;
  for (const JobStats& job : replayed.jobs) {
    map_s += job.phases.map_seconds + job.phases.combine_seconds;
    shuffle_s += job.phases.shuffle_seconds;
    reduce_s += job.phases.reduce_seconds;
    const TaskSkew s = job.ReducePartitionSkew();
    if (s.p50_records > 0) {
      skew = std::max(skew, static_cast<double>(s.max_records) /
                                static_cast<double>(s.p50_records));
    }
  }
  const double contract = tracer->InclusiveSeconds("core.contract") / replays;
  const double factor = tracer->InclusiveSeconds("core.tucker_factor") /
                        replays;
  report->Set("core.contract_s", contract, "s", kReplays);
  report->Set("core.tucker_factor_s", factor, "s", kReplays);
  report->Set("mapreduce.map_s", map_s / replays, "s", kReplays);
  report->Set("mapreduce.shuffle_s", shuffle_s / replays, "s", kReplays);
  report->Set("mapreduce.reduce_s", reduce_s / replays, "s", kReplays);
  report->Set("mapreduce.reduce_skew", skew, "ratio",
              static_cast<int64_t>(replayed.jobs.size()));
  report->Set("mapreduce.plan_overhead_s",
              contract - replayed.TotalPlanNodeSeconds() / replays, "s",
              kReplays);
  const double steady = Median(steady_iter_s);
  const double unattributed = steady - (contract + factor);
  report->Set("core.unattributed_s", unattributed, "s", kReplays);
  report->Set("core.unattributed_frac", unattributed / steady, "ratio",
              kReplays);
}

}  // namespace perfbench
