#ifndef HATEN2_MAPREDUCE_ENGINE_H_
#define HATEN2_MAPREDUCE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "distributed/subprocess_job.h"
#include "distributed/worker_pool.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job_core.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/stats.h"
#include "util/memory_tracker.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace haten2 {

/// \brief In-process MapReduce engine with Hadoop-shaped semantics.
///
/// A job is (reader, reducer, optional combiner):
///   - the reader is invoked once per input record index and emits
///     intermediate (K, V) pairs — it plays the role of the MAP function
///     over whatever input representation the caller holds (HaTen2 jobs map
///     directly over SparseTensor entries plus factor-matrix rows, exactly
///     as the paper's MAP pseudo-code reads tensor and matrix records);
///   - intermediate pairs are hash-partitioned into
///     ClusterConfig::EffectiveReduceTasks() partitions, grouped by key, and
///     the reducer is invoked once per distinct key with all its values;
///   - the optional combiner (an associative fold over V) runs at the end of
///     each map task, like a Hadoop combiner.
///
/// Every job appends JobStats (shuffled records/bytes = the paper's
/// *intermediate data*) to the engine's pipeline log. Shuffled bytes are
/// charged against ClusterConfig::total_shuffle_memory_bytes; exceeding the
/// budget fails the job with kResourceExhausted ("o.o.m."), reproducing the
/// intermediate-data-explosion failures of Figures 1 and 7.
///
/// The job's semantics — shape, map-task retry loop, combine, JobStats fold
/// and failure kind, run drain, grouping and reduce — live once in
/// mapreduce/job_core.h. Run() does the shared prologue and epilogue (job
/// id, plan tag, wall time, RecordJob) and hands the job to one of two
/// transports (ClusterConfig::backend):
///   - "inprocess"  — map tasks and reduce partitions run on the engine's
///     thread pool in this process (the default, RunInProcess below);
///   - "subprocess" — ClusterConfig::EffectiveNumWorkers() forked worker
///     processes shard tasks and partitions over Unix-domain sockets
///     (distributed/subprocess_job.h). A worker death surfaces as failure
///     kind "worker_lost" with kAborted, which the PlanScheduler's node
///     retry re-runs.
/// Both transports run the same core, so they produce bit-identical output
/// and counters for the same configuration and seeds (docs/ARCHITECTURE.md,
/// "One job core, two transports").
class Engine {
 public:
  explicit Engine(const ClusterConfig& config)
      : config_(config),
        init_status_(config.Validate()),
        pool_(static_cast<size_t>(std::max(1, config.num_threads))),
        tracker_(config.total_shuffle_memory_bytes == 0
                     ? MemoryTracker::kUnlimited
                     : config.total_shuffle_memory_bytes) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const ClusterConfig& config() const { return config_; }
  MemoryTracker& memory() { return tracker_; }

  /// Log of every job executed since the last ClearPipeline().
  ///
  /// The returned reference is only safe to read while no Run() call or
  /// plan is in flight; under concurrent scheduling use PipelineSnapshot().
  const PipelineStats& pipeline() const { return pipeline_; }

  /// Locked copy of the pipeline log — safe to take while jobs are running
  /// on other threads (each completed job appears atomically).
  PipelineStats PipelineSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pipeline_;
  }

  /// Locked copy restricted to jobs with job_id >= first_job_id (and the
  /// plans whose jobs all fall in that range). This is how drivers
  /// attribute jobs to one ALS iteration: by id watermark, which is stable
  /// under concurrent scheduling, rather than by position in the log.
  PipelineStats PipelineSince(int64_t first_job_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    PipelineStats out;
    for (const JobStats& j : pipeline_.jobs) {
      if (j.job_id >= first_job_id) out.jobs.push_back(j);
    }
    for (const PlanStats& p : pipeline_.plans) {
      // A plan is in range when it has at least one job id and all of them
      // are at or past the watermark. The any_jobs guard matters: a plan
      // whose nodes recorded no job ids (e.g. every node failed before its
      // first job, or an empty plan) would otherwise be vacuously in range
      // and attributed to *every* later iteration.
      bool any_jobs = false;
      bool in_range = true;
      for (const PlanNodeStats& n : p.nodes) {
        for (int64_t id : n.job_ids) {
          any_jobs = true;
          in_range &= id >= first_job_id;
        }
      }
      if (any_jobs && in_range) out.plans.push_back(p);
    }
    return out;
  }

  void ClearPipeline() {
    std::lock_guard<std::mutex> lock(mu_);
    pipeline_.Clear();
  }

  /// The id the next job started on this engine will receive. Taken before
  /// a batch of work, it is the watermark PipelineSince() filters by.
  int64_t NextJobId() const {
    return job_sequence_.load(std::memory_order_relaxed);
  }

  /// The id the next scheduled plan will receive (used by PlanScheduler).
  int64_t TakePlanId() {
    return plan_sequence_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one scheduled plan's statistics to the pipeline log.
  void RecordPlan(const PlanStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    pipeline_.plans.push_back(stats);
  }

  /// Accounts one lookup of the iteration-invariant input-scan cache
  /// (core/contract.h ContractCache) against the pipeline log.
  void NoteInvariantCache(bool hit) {
    std::lock_guard<std::mutex> lock(mu_);
    if (hit) {
      ++pipeline_.invariant_cache_hits;
    } else {
      ++pipeline_.invariant_cache_misses;
    }
  }

  /// \brief RAII plan-execution context for the current thread.
  ///
  /// While alive, every Engine::Run on this thread tags its JobStats with
  /// `plan_id` and appends its job id to `sink` (the scheduler's per-node
  /// job list). The scheduler instantiates one around each node executor;
  /// scopes nest (the previous context is restored on destruction).
  class PlanScope {
   public:
    PlanScope(int64_t plan_id, std::vector<int64_t>* sink)
        : prev_plan_id_(current_plan_id_), prev_sink_(job_id_sink_) {
      current_plan_id_ = plan_id;
      job_id_sink_ = sink;
    }
    ~PlanScope() {
      current_plan_id_ = prev_plan_id_;
      job_id_sink_ = prev_sink_;
    }
    PlanScope(const PlanScope&) = delete;
    PlanScope& operator=(const PlanScope&) = delete;

   private:
    int64_t prev_plan_id_;
    std::vector<int64_t>* prev_sink_;
  };

  /// Runs one MapReduce job.
  ///
  /// \tparam KMid/VMid intermediate key/value (fixed-size; the key totally
  ///         ordered and without padding bytes — see
  ///         mapreduce/job_core.h); KOut/VOut output key/value.
  /// \param name      job name for the stats log.
  /// \param num_input_records  reader is called for indices [0, n).
  /// \param reader    void(int64_t index, ShuffleEmitter<KMid, VMid>*).
  /// \param reducer   void(const KMid&, std::vector<VMid>&,
  ///                       OutputEmitter<KOut, VOut>*), called once per key
  ///                  in ascending key order within each reduce partition,
  ///                  with the key's values in emission order (without a
  ///                  combiner, the order of the input indices).
  /// \param combiner  optional VMid(const VMid&, const VMid&), associative.
  /// \returns the reducer outputs, concatenated partition-ascending.
  template <typename KMid, typename VMid, typename KOut, typename VOut,
            typename ReaderFn, typename ReduceFn>
  Result<std::vector<std::pair<KOut, VOut>>> Run(
      const std::string& name, int64_t num_input_records, ReaderFn&& reader,
      ReduceFn&& reducer,
      std::function<VMid(const VMid&, const VMid&)> combiner = nullptr) {
    using Output = std::vector<std::pair<KOut, VOut>>;
    // Fail fast on an invalid cluster configuration (the constructor cannot
    // return a Status): a zero bandwidth or negative slot count would
    // otherwise surface only as Inf/NaN simulated seconds in stats JSON.
    if (!init_status_.ok()) return init_status_;
    const bool subprocess = config_.backend == "subprocess";
    constexpr bool kWireOutput =
        distributed::kWireSerializableOutput<KOut, VOut>;
    if (subprocess && !kWireOutput) {
      return Status::Unimplemented(
          "subprocess backend: job '" + name +
          "' has an output type the wire codec cannot carry (need a "
          "fixed-size key and a fixed-size or vector-of-fixed-size value); "
          "use backend=inprocess for this job");
    }
    // Subprocess jobs are serialized on the engine's single worker pool;
    // concurrent plan nodes queue here instead of spawning rival gangs.
    std::unique_lock<std::mutex> gang_lock(subprocess_mu_, std::defer_lock);
    if (subprocess) gang_lock.lock();

    WallTimer timer;
    JobStats stats;
    stats.name = name;
    // One sequence number per job, taken exactly once: it keys both the
    // spill-file prefix and the failure-injection decisions.
    stats.job_id = job_sequence_.fetch_add(1, std::memory_order_relaxed);
    stats.plan_id = current_plan_id_;
    if (job_id_sink_ != nullptr) job_id_sink_->push_back(stats.job_id);
    const JobShape shape =
        JobShape::For(config_, num_input_records, this, stats.job_id);
    ShapeJobStats(shape, &stats);

    Result<Output> result = [&]() -> Result<Output> {
      if constexpr (kWireOutput) {
        if (subprocess) {
          if (worker_pool_ == nullptr) {
            worker_pool_ = std::make_unique<distributed::WorkerPool>(
                config_.EffectiveNumWorkers());
          }
          return distributed::RunSubprocessJob<KMid, VMid, KOut, VOut>(
              config_, shape, worker_pool_.get(), &tracker_, reader, reducer,
              combiner, &stats);
        }
      }
      return RunInProcess<KMid, VMid, KOut, VOut>(shape, reader, reducer,
                                                  combiner, &stats);
    }();
    stats.wall_seconds = timer.ElapsedSeconds();
    RecordJob(stats);
    return result;
  }

  /// Convenience wrapper: runs a job whose input is an in-memory vector of
  /// (key, value) pairs, with a classic map function signature.
  template <typename KMid, typename VMid, typename KOut, typename VOut,
            typename KIn, typename VIn, typename MapFn, typename ReduceFn>
  Result<std::vector<std::pair<KOut, VOut>>> RunOnPairs(
      const std::string& name, const std::vector<std::pair<KIn, VIn>>& input,
      MapFn&& map_fn, ReduceFn&& reducer,
      std::function<VMid(const VMid&, const VMid&)> combiner = nullptr) {
    return Run<KMid, VMid, KOut, VOut>(
        name, static_cast<int64_t>(input.size()),
        [&input, &map_fn](int64_t i, ShuffleEmitter<KMid, VMid>* em) {
          const auto& rec = input[static_cast<size_t>(i)];
          map_fn(rec.first, rec.second, em);
        },
        std::forward<ReduceFn>(reducer), std::move(combiner));
  }

  /// Per-worker-slot counters of the subprocess backend's worker pool
  /// (empty before the first subprocess job; see haten2-stats-v9 "workers").
  /// Blocks while a subprocess job is in flight.
  std::vector<distributed::WorkerStats> WorkerStatsSnapshot() const {
    std::lock_guard<std::mutex> lock(subprocess_mu_);
    if (worker_pool_ == nullptr) return {};
    return worker_pool_->StatsSnapshot();
  }

 private:
  /// The in-process transport: map tasks and then reduce partitions run on
  /// the engine's thread pool, and partitions group straight from the map
  /// tasks' emitters. Shuffled bytes are charged against the engine's
  /// budget as they are emitted and released when the job ends.
  template <typename KMid, typename VMid, typename KOut, typename VOut,
            typename ReaderFn, typename ReduceFn>
  Result<std::vector<std::pair<KOut, VOut>>> RunInProcess(
      const JobShape& shape, ReaderFn& reader, ReduceFn& reducer,
      const std::function<VMid(const VMid&, const VMid&)>& combiner,
      JobStats* stats) {
    using Record = std::pair<KMid, VMid>;
    constexpr uint64_t kRecordBytes = sizeof(Record);
    const size_t num_tasks = static_cast<size_t>(shape.num_tasks);
    const size_t num_partitions = static_cast<size_t>(shape.num_partitions);
    // Contiguous phase segments: they sum to ≈ wall_seconds.
    WallTimer phase_timer;

    // ---- Map (then combine) phase ----
    std::vector<ShuffleEmitter<KMid, VMid>> emitters;
    emitters.reserve(num_tasks);
    for (int t = 0; t < shape.num_tasks; ++t) {
      emitters.push_back(
          MakeTaskEmitter<KMid, VMid>(config_, shape, t, &tracker_));
    }
    std::vector<TaskReport> reports(num_tasks);
    pool_.ParallelFor(num_tasks, [&](size_t t) {
      reports[t] = RunMapTask(config_, shape, stats->job_id,
                              static_cast<int>(t), reader, &emitters[t]);
    });
    stats->phases.map_seconds = phase_timer.Lap();
    if (combiner && !AnyTaskFailed(reports)) {
      pool_.ParallelFor(num_tasks, [&](size_t t) {
        CombineTask(combiner, &emitters[t], &reports[t]);
      });
      stats->phases.combine_seconds = phase_timer.Lap();
    }

    // Removes spill files (the stats already captured them) and releases
    // the budget on every exit path.
    auto finish = [&](Status status) -> Status {
      for (auto& em : emitters) {
        em.RemoveAllSpills();
        tracker_.Release(em.charged_bytes());
      }
      return status;
    };
    Status io_detail = Status::OK();
    for (const auto& em : emitters) {
      if (em.failed() && em.failure_status().IsIOError()) {
        io_detail = em.failure_status();
        break;
      }
    }
    Status folded = FoldTaskReports(stats->name, reports, kRecordBytes,
                                    io_detail, stats);
    if (!folded.ok()) return finish(folded);

    // ---- Shuffle/group phase (parallel over partitions) ----
    std::vector<GroupMap<KMid, VMid>> groups(num_partitions);
    std::mutex drain_mu;
    Status drain_status = Status::OK();
    pool_.ParallelFor(num_partitions, [&](size_t p) {
      GroupMap<KMid, VMid>& partition = groups[p];
      int64_t received = 0;
      for (auto& em : emitters) {
        Status drained =
            DrainRun(&em, p, [&partition, &received](const Record& rec) {
              partition[rec.first].push_back(rec.second);
              ++received;
            });
        if (!drained.ok()) {
          std::lock_guard<std::mutex> lock(drain_mu);
          if (drain_status.ok()) drain_status = drained;
        }
      }
      stats->reduce_partition_records[p] = received;
      stats->reduce_partition_bytes[p] =
          static_cast<uint64_t>(received) * kRecordBytes;
    });
    stats->phases.shuffle_seconds = phase_timer.Lap();
    if (!drain_status.ok()) {
      return finish(FailJobByFlags(stats->name, kTaskSpillReadIO,
                                   drain_status, stats));
    }

    // ---- Reduce phase (parallel over partitions) ----
    std::vector<OutputEmitter<KOut, VOut>> outputs(num_partitions);
    std::vector<int64_t> group_counts(num_partitions, 0);
    pool_.ParallelFor(num_partitions, [&](size_t p) {
      group_counts[p] = ReducePartition(&groups[p], reducer, &outputs[p]);
    });
    std::vector<std::pair<KOut, VOut>> output;
    size_t total = 0;
    for (auto& out : outputs) total += out.records().size();
    output.reserve(total);
    for (auto& out : outputs) {
      for (auto& rec : out.records()) output.push_back(std::move(rec));
    }
    for (int64_t g : group_counts) stats->reduce_input_groups += g;
    stats->reduce_output_records = static_cast<int64_t>(output.size());
    stats->phases.reduce_seconds = phase_timer.Lap();
    finish(Status::OK());
    return output;
  }

  void RecordJob(const JobStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    pipeline_.jobs.push_back(stats);
  }

  ClusterConfig config_;
  /// Result of config_.Validate(), taken at construction and returned by
  /// every Run() when not OK.
  Status init_status_;
  ThreadPool pool_;
  MemoryTracker tracker_;
  PipelineStats pipeline_;
  /// Subprocess backend state: the pool is created lazily on the first
  /// subprocess job and persists across jobs (its slots carry the restart
  /// counters); subprocess_mu_ serializes subprocess jobs on it.
  std::unique_ptr<distributed::WorkerPool> worker_pool_;
  mutable std::mutex subprocess_mu_;
  mutable std::mutex mu_;
  std::atomic<int64_t> job_sequence_{0};
  std::atomic<int64_t> plan_sequence_{0};

  /// Per-thread plan context installed by PlanScope. thread_local (rather
  /// than a member) because the scheduler runs node executors on its own
  /// threads while unrelated threads may call Run() directly on the same
  /// engine — those direct jobs must stay untagged (plan_id -1).
  inline static thread_local int64_t current_plan_id_ = -1;
  inline static thread_local std::vector<int64_t>* job_id_sink_ = nullptr;
};

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_ENGINE_H_
