// ingest-refit-serve: the streaming loop. Bootstrap a rank-16 CP model of a
// Zipf tensor and install it; then per epoch: refit with the sealed delta
// (RefitController::ProcessEpoch, incremental, warm-started), write a
// checkpoint, and serve a closed-loop burst of mixed queries from 2 client
// threads against the version just installed. It exercises the write side
// of the layers cp-incore-zipf only reads (delta merge, dirty-slice layout
// patching, checkpoint I/O, hot-swap install) and the serving path.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/checkpoint.h"
#include "linalg/sparse_kernels.h"
#include "mapreduce/engine.h"
#include "serving/model_registry.h"
#include "serving/query_engine.h"
#include "serving/refit_controller.h"
#include "serving/request_pipeline.h"
#include "serving/serving_stats.h"
#include "tensor/delta_log.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace haten2;

const std::vector<int64_t> kDims = {20000, 20000, 200};
constexpr int64_t kBaseDraws = 220000;
constexpr double kZipfExponent = 1.05;
constexpr int64_t kRank = 16;
constexpr int kRefitIterations = 3;
constexpr int kEpochsPerPass = 6;
constexpr int64_t kEpochNnz = 4000;
constexpr int kBurstQueries = 400;
constexpr int kClients = 2;
constexpr int kMinPasses = 2;
constexpr const char* kModel = "live";

// Fresh facts arrive with the same popularity skew as the base tensor.
Result<DeltaLog> ZipfDeltaLog(uint64_t seed) {
  HATEN2_ASSIGN_OR_RETURN(DeltaLog log, DeltaLog::Create(kDims));
  std::vector<Rng> mode_rngs;
  for (size_t m = 0; m < kDims.size(); ++m) {
    mode_rngs.emplace_back(seed * 0xbf58476d1ce4e5b9ULL + m + 7);
  }
  Rng values(seed ^ 0xd17a);
  std::vector<int64_t> idx(kDims.size());
  for (int e = 0; e < kEpochsPerPass; ++e) {
    for (int64_t i = 0; i < kEpochNnz; ++i) {
      for (size_t m = 0; m < kDims.size(); ++m) {
        idx[m] = static_cast<int64_t>(
            mode_rngs[m].Zipf(static_cast<uint64_t>(kDims[m]), kZipfExponent));
      }
      HATEN2_RETURN_IF_ERROR(log.Append(idx.data(),
                                        static_cast<int>(idx.size()),
                                        values.Uniform(0.5, 1.5)));
    }
    HATEN2_RETURN_IF_ERROR(log.SealEpoch().status());
  }
  return log;
}

// A burst with haten2_serve's synthetic-load mix by kind (RunSyntheticLoad:
// 20% top-k, 40% neighbors, 40% concepts, k = 10). Neighbors anchor on
// distinct rows, so they always miss the cache; concepts cycle through the
// rank x modes (component, mode) pairs and top-k repeats one query, as in
// haten2_serve, so their repeats hit: about 191 of 400, a minority.
std::vector<Query> Burst(int epoch, uint64_t seed) {
  std::vector<Query> burst;
  Rng rng(seed * 31 + static_cast<uint64_t>(epoch));
  const int64_t offset = static_cast<int64_t>(rng.UniformInt(uint64_t{1000}));
  const int order = static_cast<int>(kDims.size());
  int64_t neighbors = 0, concepts = 0;
  for (int q = 0; q < kBurstQueries; ++q) {
    Query query;
    query.model = kModel;
    query.k = 10;
    if (q % 5 == 0) {
      query.kind = QueryKind::kTopK;
      query.beam = 10;
    } else if (q % 5 <= 2) {
      query.kind = QueryKind::kNeighbors;
      query.mode = static_cast<int>(neighbors % order);
      // 37 is coprime to every mode size, so rows never repeat in a burst.
      query.row = (offset + neighbors / order * 37) %
                  kDims[static_cast<size_t>(query.mode)];
      ++neighbors;
    } else {
      query.kind = QueryKind::kConcepts;
      query.component = concepts % kRank;
      query.mode = static_cast<int>(concepts / kRank % order);
      ++concepts;
    }
    burst.push_back(query);
  }
  return burst;
}

struct BurstResult {
  std::vector<double> latency_s;  // per query, client side
  std::vector<bool> hit;
  double wall_s = 0.0;
};

// Closed loop: each client submits its next query only after the previous
// answer arrived. Every answer must be ok and from `version`.
BurstResult RunBurst(RequestPipeline* pipeline,
                     const std::vector<Query>& burst, int64_t version,
                     Report* report) {
  BurstResult out;
  out.latency_s.assign(burst.size(), 0.0);
  out.hit.assign(burst.size(), false);
  std::vector<int> ok(burst.size(), 0);
  std::atomic<size_t> next{0};
  const double start = NowSeconds();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < burst.size();
           i = next.fetch_add(1)) {
        const double t0 = NowSeconds();
        RequestPipeline::Response r = pipeline->Submit(burst[i]).get();
        out.latency_s[i] = NowSeconds() - t0;
        out.hit[i] = r.cache_hit;
        ok[i] = r.status.ok() && r.result != nullptr &&
                r.result->model_version == version;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.wall_s = NowSeconds() - start;
  for (size_t i = 0; i < burst.size(); ++i) {
    report->Attempt(ok[i] != 0, "query answered from the installed version");
  }
  return out;
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTopK: return "topk";
    case QueryKind::kNeighbors: return "neighbors";
    case QueryKind::kConcepts: return "concepts";
  }
  return "unknown";
}

// Replays one epoch's write-side layer calls on copies of the pre-epoch
// tensor and cache, each inside its own span.
void ReplayEpochLayers(const SparseTensor& pre, const ContractCache& pre_cache,
                       const SparseTensor& delta, Tracer* tracer,
                       Report* report, double* reuse_ratio) {
  SparseTensor merged = pre;
  {
    Tracer::Scope span(tracer, "tensor.merge_delta");
    report->AttemptStatus(MergeDelta(&merged, delta), "MergeDelta");
  }
  ContractCache cache = pre_cache;
  {
    Tracer::Scope span(tracer, "core.apply_delta");
    report->AttemptStatus(cache.ApplyDelta(merged, delta), "ApplyDelta");
  }
  const int64_t reused = cache.layout_slices_reused() -
                         pre_cache.layout_slices_reused();
  const int64_t rebuilt = cache.layout_slices_rebuilt() -
                          pre_cache.layout_slices_rebuilt();
  *reuse_ratio = static_cast<double>(reused) /
                 static_cast<double>(std::max<int64_t>(1, reused + rebuilt));
  // The per-mode patch itself, from the pre-epoch layouts.
  ContractCache old_cache = pre_cache;
  for (int n = 0; n < pre.order(); ++n) {
    Result<std::shared_ptr<const CsfLayout>> old = old_cache.Layout(pre, n);
    if (!report->AttemptStatus(old.status(), "pre-epoch layout")) return;
    std::vector<int64_t> dirty;
    for (int64_t e = 0; e < delta.nnz(); ++e) {
      dirty.push_back(delta.index(e, n));
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    Tracer::Scope span(tracer, "linalg.csf_patch");
    report->AttemptStatus(PatchCsfLayout(**old, merged, dirty).status(),
                          "PatchCsfLayout");
  }
}

}  // namespace

void RunIngestRefitServe(const RunOptions& opt, Tracer* tracer,
                         Report* report) {
  Result<SparseTensor> generated =
      ZipfTensor(kDims, kBaseDraws, kZipfExponent, opt.seed);
  if (!report->AttemptStatus(generated.status(), "generate base")) return;
  Result<std::string> base_path = WriteInput(*generated, opt.workdir, "base");
  if (!report->AttemptStatus(base_path.status(), "write base")) return;
  const int64_t base_nnz = generated->nnz();
  generated = Status::Internal("released");
  const std::string log_path = opt.workdir + "/deltas.h2d";
  {
    Result<DeltaLog> log = ZipfDeltaLog(opt.seed);
    if (!report->AttemptStatus(log.status(), "generate deltas")) return;
    if (!report->AttemptStatus(WriteDeltaLogBinary(*log, log_path),
                               "write deltas") ||
        !report->AttemptStatus(SyncFile(log_path), "sync deltas")) {
      return;
    }
  }
  ResetPeakRssAfterInputs(report);
  std::printf("ingest-refit-serve: base %lldx%lldx%lld with %lld stored nnz, "
              "rank %lld; %d epochs of %lld delta entries per pass, %d "
              "refit iterations; bursts of %d queries from %d closed-loop "
              "clients\n",
              (long long)kDims[0], (long long)kDims[1], (long long)kDims[2],
              (long long)base_nnz, (long long)kRank, kEpochsPerPass,
              (long long)kEpochNnz, kRefitIterations, kBurstQueries,
              kClients);

  std::vector<double> setup_s, freshness_s, first_iter_s, steady_iter_s;
  std::vector<double> refit_s, checkpoint_s, install_s;
  std::vector<double> query_s, burst_qps, queue_wait_ms;
  std::vector<double> execute_us[3];
  std::vector<double> reuse_ratios;
  // Each pass builds a fresh serving stack on new threads, and the heap's
  // per-thread arenas make the high-water mark creep with the pass count;
  // the peak through the first pass is the one that does not depend on how
  // many passes fit in the run.
  double peak_rss_mib = 0.0;
  uint64_t cache_hits = 0, cache_lookups = 0;
  const double start = NowSeconds();
  int passes = 0;
  std::vector<double> pass_s;
  while (passes < kMinPasses || MoreReps(start, opt.seconds, pass_s)) {
    ++passes;
    const double pass_start = NowSeconds();
    // Set-up: read inputs, build the serving stack, bootstrap fit + install.
    Tracer::Scope setup(tracer, "setup");
    Result<SparseTensor> base = LoadInput(*base_path, tracer);
    if (!report->AttemptStatus(base.status(), "read base")) return;
    Result<DeltaLog> log = Status::Internal("unset");
    {
      Tracer::Scope span(tracer, "tensor.read_delta_log");
      log = ReadDeltaLogBinary(log_path);
    }
    if (!report->AttemptStatus(log.status(), "read deltas")) return;
    ClusterConfig config;
    config.num_threads = 1;
    config.contraction = "incore";  // as haten2_serve --refit_loop
    Engine engine(config);
    ModelRegistry registry;
    QueryEngine query_engine(&registry);
    ServingStats serving_stats;
    PipelineOptions pipeline_options;
    // 1 engine thread, 1 pipeline worker and 2 clients: within 4 cores.
    pipeline_options.num_threads = 1;
    pipeline_options.cache_capacity = 1024;
    RequestPipeline pipeline(&query_engine, &serving_stats, pipeline_options);
    registry.SetInstallListener(
        [&pipeline](const std::string& name, int64_t version) {
          pipeline.PurgeModelExcept(name, version);
        });
    DecompositionTrace refit_trace;
    RefitController::Options controller_options;
    controller_options.model_name = kModel;
    controller_options.refit.rank = kRank;
    controller_options.refit.incremental = true;
    controller_options.refit.als.max_iterations = kRefitIterations;
    controller_options.refit.als.tolerance = -1.0;
    controller_options.refit.als.seed = opt.seed;
    controller_options.refit.als.trace = &refit_trace;
    RefitController controller(&engine, &registry, std::move(base).value(),
                               controller_options);
    Status boot = Status::OK();
    {
      Tracer::Scope span(tracer, "core.bootstrap");
      boot = controller.Bootstrap();
    }
    if (!report->AttemptStatus(boot, "bootstrap fit + install")) {
      pipeline.Shutdown();
      return;
    }
    setup_s.push_back(setup.Stop());

    CheckpointOptions ckpt_options;
    ckpt_options.directory =
        opt.workdir + "/checkpoints-" + std::to_string(passes);
    ckpt_options.keep_last = 2;
    CheckpointWriter writer(ckpt_options);
    int64_t reused = 0, rebuilt = 0, layout_hits = 0;
    for (int e = 0; e < kEpochsPerPass; ++e) {
      const SparseTensor& delta = log->epoch(e);
      SparseTensor pre;
      ContractCache pre_cache;
      if (opt.trace) {
        pre = controller.session().tensor();
        pre_cache = controller.session().cache();
      }
      const RefitController::Counters before = controller.GetCounters();
      const size_t trace_start = refit_trace.iterations.size();
      Status refit = Status::OK();
      {
        Tracer::Scope span(tracer, "epoch.refit_to_serving");
        refit = controller.ProcessEpoch(delta);
        freshness_s.push_back(span.Stop());
      }
      if (!report->AttemptStatus(refit, "ProcessEpoch")) break;
      const RefitController::Counters after = controller.GetCounters();
      refit_s.push_back(after.refit.refit_seconds -
                        before.refit.refit_seconds);
      SplitIterations(refit_trace, trace_start, &first_iter_s,
                      &steady_iter_s);
      Result<std::shared_ptr<const ServedModel>> served = registry.Get(kModel);
      const int64_t version = after.installed_version;
      report->Attempt(served.ok() && (*served)->version == version &&
                          after.epochs_behind == 0,
                      "install of the refit model");

      {
        CheckpointManifest manifest;
        manifest.method = "parafac";
        manifest.model_kind = "kruskal";
        manifest.fingerprint = CheckpointFingerprint(
            "parafac", Variant::kDri, opt.seed, -1.0, {kRank},
            controller.session().tensor());
        manifest.iteration = e + 1;
        manifest.metric = controller.session().model().fit;
        manifest.fit_history = controller.session().model().fit_history;
        Tracer::Scope span(tracer, "core.checkpoint_write");
        report->AttemptStatus(
            writer.Write(manifest, &controller.session().model(), nullptr),
            "checkpoint write");
        checkpoint_s.push_back(span.Stop());
      }

      const std::vector<Query> burst = Burst(e, opt.seed);
      const auto cache_before = pipeline.CacheStats();
      BurstResult result;
      {
        Tracer::Scope span(tracer, "serving.burst");
        result = RunBurst(&pipeline, burst, version, report);
      }
      const auto cache_after = pipeline.CacheStats();
      cache_hits += cache_after.hits - cache_before.hits;
      cache_lookups += (cache_after.hits + cache_after.misses) -
                       (cache_before.hits + cache_before.misses);
      query_s.insert(query_s.end(), result.latency_s.begin(),
                     result.latency_s.end());
      burst_qps.push_back(static_cast<double>(burst.size()) / result.wall_s);

      const ContractCache& cache = controller.session().cache();
      reused = cache.layout_slices_reused();
      rebuilt = cache.layout_slices_rebuilt();
      layout_hits = cache.layout_hits();

      if (!opt.trace || !served.ok()) continue;
      // Traced run: the same queries straight through QueryEngine::Execute
      // (no queue, no cache), and the epoch's write-side layers replayed.
      for (size_t i = 0; i < burst.size(); ++i) {
        Tracer::Scope span(tracer, "serving.execute");
        Result<QueryResult> direct = query_engine.Execute(burst[i]);
        const double s = span.Stop();
        report->AttemptStatus(direct.status(), "QueryEngine::Execute");
        execute_us[static_cast<int>(burst[i].kind)].push_back(s * 1e6);
        queue_wait_ms.push_back(
            (result.latency_s[i] - (result.hit[i] ? 0.0 : s)) * 1e3);
      }
      {
        ModelRegistry scratch;
        Tracer::Scope span(tracer, "serving.install");
        report->AttemptStatus(
            scratch
                .InstallKruskal(kModel, controller.session().model(),
                                std::make_shared<const SparseTensor>(
                                    controller.session().tensor()))
                .status(),
            "InstallKruskal");
        install_s.push_back(span.Stop());
      }
      {
        Tracer::Scope span(tracer, "tensor.kruskal_fit");
        report->AttemptStatus(KruskalFit(controller.session().tensor(),
                                         controller.session().model())
                                  .status(),
                              "KruskalFit");
      }
      double ratio = 0.0;
      ReplayEpochLayers(pre, pre_cache, delta, tracer, report, &ratio);
      reuse_ratios.push_back(ratio);
    }
    pipeline.Shutdown();
    pass_s.push_back(NowSeconds() - pass_start);
    if (passes == 1) peak_rss_mib = PeakRssMiB();
    report->RecordCounts(
        {{"layout_slices_reused", static_cast<double>(reused)},
         {"layout_slices_rebuilt", static_cast<double>(rebuilt)},
         {"layout_hits", static_cast<double>(layout_hits)},
         {"tensor_nnz",
          static_cast<double>(controller.session().tensor().nnz())},
         {"installed_version",
          static_cast<double>(controller.GetCounters().installed_version)}});
  }
  // On this workload the decomposition call is the epoch's refit, from the
  // sealed delta to its version serving; decompose_s is its freshness.
  SetEndToEnd(report, setup_s, freshness_s, first_iter_s, steady_iter_s,
              peak_rss_mib);
  const int64_t epochs = static_cast<int64_t>(freshness_s.size());
  const int64_t queries = static_cast<int64_t>(query_s.size());
  report->Set("freshness_s_p50", Median(freshness_s), "s", epochs);
  report->Set("query_ms_p50", Quantile(query_s, 0.5) * 1e3, "ms", queries);
  report->Set("query_ms_p99", Quantile(query_s, 0.99) * 1e3, "ms", queries);
  report->Set("query_qps", Median(burst_qps), "1/s",
              static_cast<int64_t>(burst_qps.size()));
  report->Set("serving.cache_hit_ratio",
              static_cast<double>(cache_hits) /
                  static_cast<double>(std::max<uint64_t>(1, cache_lookups)),
              "ratio", static_cast<int64_t>(cache_lookups));

  if (!opt.trace) return;

  const auto per_epoch = [&](const char* span) {
    return tracer->InclusiveSeconds(span) /
           static_cast<double>(std::max<int64_t>(1, tracer->Count(span)));
  };
  report->Set("tensor.kruskal_fit_s", per_epoch("tensor.kruskal_fit"), "s",
              tracer->Count("tensor.kruskal_fit"));
  report->Set("tensor.load_s", Median(tracer->Durations("tensor.load")), "s",
              tracer->Count("tensor.load"));
  report->Set("tensor.merge_delta_s", per_epoch("tensor.merge_delta"), "s",
              tracer->Count("tensor.merge_delta"));
  report->Set("core.apply_delta_s", per_epoch("core.apply_delta"), "s",
              tracer->Count("core.apply_delta"));
  report->Set("linalg.csf_patch_s",
              tracer->InclusiveSeconds("linalg.csf_patch") /
                  static_cast<double>(std::max<int64_t>(
                      1, tracer->Count("core.apply_delta"))),
              "s", tracer->Count("linalg.csf_patch"));
  report->Set("core.patch_reuse_ratio", Median(reuse_ratios), "ratio",
              static_cast<int64_t>(reuse_ratios.size()));
  report->Set("core.refit_s", Median(refit_s), "s", epochs);
  report->Set("core.checkpoint_write_s", Median(checkpoint_s), "s",
              static_cast<int64_t>(checkpoint_s.size()));
  report->Set("serving.install_s", Median(install_s), "s",
              static_cast<int64_t>(install_s.size()));
  for (QueryKind kind :
       {QueryKind::kTopK, QueryKind::kNeighbors, QueryKind::kConcepts}) {
    const std::vector<double>& s = execute_us[static_cast<int>(kind)];
    report->Set(std::string("serving.execute_us_p50.") + KindName(kind),
                Median(s), "us", static_cast<int64_t>(s.size()));
  }
  report->Set("serving.queue_wait_ms_p50", Median(queue_wait_ms), "ms",
              static_cast<int64_t>(queue_wait_ms.size()));
  // An epoch's freshness less the layer calls it is made of.
  const double unattributed =
      Median(freshness_s) -
      (per_epoch("tensor.merge_delta") + per_epoch("core.apply_delta") +
       Median(refit_s) + Median(install_s));
  report->Set("core.unattributed_s", unattributed, "s", epochs);
  report->Set("core.unattributed_frac", unattributed / Median(freshness_s),
              "ratio", epochs);
}

}  // namespace perfbench
