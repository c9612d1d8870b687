#ifndef HATEN2_MAPREDUCE_JOB_CORE_H_
#define HATEN2_MAPREDUCE_JOB_CORE_H_

// The semantics of one MapReduce job, written once for both engine
// transports. Engine::Run (mapreduce/engine.h) hands a job either to the
// in-process transport (thread-pool map tasks and reduce partitions) or to
// the subprocess transport (a forked worker gang, distributed/
// subprocess_job.h). The transports only place work and move records and
// reports between places; every step that decides a job's output bits or
// its JobStats is one of the pieces below:
//
//   JobShape         task and partition counts, input chunking, and the
//                    spill-file prefix
//   RunMapTask       the deterministic retry loop, the reader loop and the
//                    flush of one map task, summarized in a TaskReport
//   CombineTask      the combiner over one task's in-memory buffers
//   FoldTaskReports  TaskReports -> JobStats map/spill counters plus the
//                    failure kind ("aborted", "io_error", "oom")
//   DrainRun         one (task, partition) run: spilled records first, then
//                    the buffer
//   GroupMap, ReducePartition
//                    the reduce-side grouping and the reduce loop
//
// The ordering rule, held here for both transports: the reducer is called
// once per key in ascending key order, and each key's values arrive in
// (task, spilled-then-buffered, emission) order — Hadoop's sorted-reducer
// contract. A transport therefore inserts each partition's runs
// task-ascending, which fixes per-key value order only; the order in which
// records of different keys arrive does not matter. With the partition-
// ascending output concatenation, a job's output is then a function of its
// per-key value sequences alone: the same on either transport, with or
// without spilling.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/stats.h"
#include "util/memory_tracker.h"
#include "util/result.h"

namespace haten2 {

/// True when every byte of T belongs to a value. An intermediate key's
/// leading bytes are the spill codec's sort key (spill_codec.h KeyPrefix),
/// so padding there — e.g. std::pair<int32_t, int64_t> — would make spill
/// and wire block sizes depend on stale heap bytes.
template <typename T>
struct HasNoPaddingBytes
    : std::bool_constant<std::is_floating_point_v<T> ||
                         std::has_unique_object_representations_v<T>> {};
template <typename A, typename B>
struct HasNoPaddingBytes<std::pair<A, B>>
    : std::bool_constant<HasNoPaddingBytes<A>::value &&
                         HasNoPaddingBytes<B>::value &&
                         sizeof(std::pair<A, B>) == sizeof(A) + sizeof(B)> {};

/// Where a job's work goes: fixed once per job from the cluster config.
struct JobShape {
  int num_tasks = 1;
  int num_partitions = 1;
  int64_t num_input_records = 0;
  /// Input records per map task; task t reads [t·chunk, (t+1)·chunk).
  int64_t chunk = 0;
  /// Spill-file prefix up to the per-task suffix ("" disables spilling).
  std::string spill_prefix;

  /// `owner` tells apart engines that share one spill directory.
  static JobShape For(const ClusterConfig& config, int64_t num_input_records,
                      const void* owner, int64_t job_id) {
    JobShape shape;
    shape.num_partitions = config.EffectiveReduceTasks();
    shape.num_tasks = config.EffectiveMapTasks();
    if (num_input_records < shape.num_tasks) {
      shape.num_tasks =
          static_cast<int>(std::max<int64_t>(1, num_input_records));
    }
    shape.num_input_records = num_input_records;
    shape.chunk = (num_input_records + shape.num_tasks - 1) / shape.num_tasks;
    if (!config.spill_directory.empty()) {
      shape.spill_prefix =
          config.spill_directory + "/haten2_" +
          std::to_string(reinterpret_cast<uintptr_t>(owner)) + "_j" +
          std::to_string(job_id);
    }
    return shape;
  }

  std::string TaskSpillPrefix(int task) const {
    return spill_prefix.empty() ? std::string()
                                : spill_prefix + "_t" + std::to_string(task);
  }
};

/// Sizes a job's per-task and per-partition counters, so a job that dies
/// early still reports its shape (zero-filled) post-mortem.
inline void ShapeJobStats(const JobShape& shape, JobStats* stats) {
  const size_t tasks = static_cast<size_t>(shape.num_tasks);
  const size_t partitions = static_cast<size_t>(shape.num_partitions);
  stats->map_input_records = shape.num_input_records;
  stats->map_task_records.assign(tasks, 0);
  stats->map_task_attempts.assign(tasks, 1);
  stats->map_task_spilled_bytes.assign(tasks, 0);
  stats->reduce_partition_records.assign(partitions, 0);
  stats->reduce_partition_bytes.assign(partitions, 0);
}

/// Map task t's emitter: partitioned by the job shape, spilling under the
/// job's prefix, charging `tracker` (nullptr = unmetered).
template <typename K, typename V>
ShuffleEmitter<K, V> MakeTaskEmitter(const ClusterConfig& config,
                                     const JobShape& shape, int task,
                                     MemoryTracker* tracker) {
  return ShuffleEmitter<K, V>(shape.num_partitions, tracker,
                              shape.TaskSpillPrefix(task),
                              config.spill_threshold_records,
                              config.spill_compression,
                              config.inject_spill_failure_after_bytes);
}

/// TaskReport::flags bits.
inline constexpr uint32_t kTaskGaveUp = 1u << 0;  ///< exhausted attempts
inline constexpr uint32_t kTaskSpillWriteIO = 1u << 1;
inline constexpr uint32_t kTaskSpillReadIO = 1u << 2;
inline constexpr uint32_t kTaskBudgetExhausted = 1u << 3;

/// One map task's post-mortem. The subprocess transport ships it verbatim
/// in its kMapDone frame (coordinator and workers are fork images of one
/// binary), so it stays a fixed-size struct of fixed-width fields.
struct TaskReport {
  int64_t task = 0;
  /// Input records handed to the reader (a task killed mid-chunk by the
  /// budget claims only what it processed).
  int64_t processed = 0;
  int64_t pre_combine_records = 0;
  int64_t post_combine_records = 0;
  int64_t spilled_records = 0;
  uint64_t spilled_disk_bytes = 0;
  int32_t attempts = 1;
  uint32_t flags = 0;
};
static_assert(sizeof(TaskReport) == 56, "TaskReport is a wire record");

inline bool AnyTaskFailed(const std::vector<TaskReport>& reports) {
  return std::any_of(reports.begin(), reports.end(),
                     [](const TaskReport& r) { return r.flags != 0; });
}

/// Runs map task `task` into `em`. Failure injection: a crashed attempt
/// loses its (would-be) output and the task is re-executed, like a Hadoop
/// task retry; attempts are drawn deterministically from the job id, so
/// every transport replays the same retry sequence.
template <typename K, typename V, typename ReaderFn>
TaskReport RunMapTask(const ClusterConfig& config, const JobShape& shape,
                      int64_t job_id, int task, ReaderFn& reader,
                      ShuffleEmitter<K, V>* em) {
  // Byte accounting (and hence the o.o.m. semantics) relies on fixed-size
  // intermediate records, mirroring Hadoop's serialized Writables.
  static_assert(IsFixedSizeRecord<K>::value,
                "intermediate keys must be fixed-size records");
  static_assert(IsFixedSizeRecord<V>::value,
                "intermediate values must be fixed-size records");
  static_assert(HasNoPaddingBytes<K>::value,
                "intermediate keys must have no padding bytes");
  static_assert(std::totally_ordered<K>,
                "reducers run in ascending key order (GroupMap)");
  TaskReport rep;
  rep.task = task;
  int attempt = 1;
  while (attempt <= config.max_task_attempts &&
         ShouldFailMapAttempt(config, job_id, static_cast<size_t>(task),
                              attempt)) {
    ++attempt;
  }
  rep.attempts = std::min(attempt, config.max_task_attempts);
  if (attempt > config.max_task_attempts) {
    rep.flags |= kTaskGaveUp;
  } else {
    const int64_t begin = static_cast<int64_t>(task) * shape.chunk;
    const int64_t end = std::min(begin + shape.chunk, shape.num_input_records);
    for (int64_t i = begin; i < end; ++i) {
      reader(i, em);
      ++rep.processed;
      if (em->failed()) break;
    }
    em->Flush();
  }
  if (em->failed()) {
    rep.flags |= em->failure_status().IsIOError() ? kTaskSpillWriteIO
                                                  : kTaskBudgetExhausted;
  }
  rep.pre_combine_records = em->TotalRecords();
  rep.post_combine_records = rep.pre_combine_records;
  rep.spilled_records = em->TotalSpilledRecords();
  rep.spilled_disk_bytes = em->TotalSpilledDiskBytes();
  return rep;
}

/// Folds a finished task's in-memory buffers through the combiner (spilled
/// runs are shuffled uncombined).
template <typename K, typename V>
void CombineTask(const std::function<V(const V&, const V&)>& combiner,
                 ShuffleEmitter<K, V>* em, TaskReport* rep) {
  for (auto& buf : em->buffers()) CombineShuffleBuffer<K, V>(&buf, combiner);
  rep->post_combine_records = em->TotalRecords();
}

/// Marks the job failed by the worst of `flags` — a task that gave up
/// ("aborted"), then a spill write or read error ("io_error"), then the
/// shuffle budget ("oom") — and returns its status; OK when `flags` is 0.
/// `io_detail`, when not OK, names the failing spill file.
inline Status FailJobByFlags(const std::string& job_name, uint32_t flags,
                             const Status& io_detail, JobStats* stats) {
  const std::string job = "job '" + job_name + "'";
  if (flags & kTaskGaveUp) {
    stats->failure = "aborted";
    return Status::Aborted(job + ": a map task exceeded max_task_attempts");
  }
  if (flags & (kTaskSpillWriteIO | kTaskSpillReadIO)) {
    stats->failure = "io_error";
    if (!io_detail.ok()) {
      return Status::IOError(job + ": " + std::string(io_detail.message()));
    }
    return Status::IOError(job + ": a map task's spill " +
                           ((flags & kTaskSpillWriteIO) ? "write" : "read") +
                           " failed");
  }
  if (flags & kTaskBudgetExhausted) {
    stats->failure = "oom";
    return Status::ResourceExhausted(
        "o.o.m.: " + job + " exceeded the cluster shuffle-memory budget");
  }
  return Status::OK();
}

/// Turns the job's task reports (indexed by task) into its map-side and
/// spill counters, then fails the job by the reports' flags.
inline Status FoldTaskReports(const std::string& job_name,
                              const std::vector<TaskReport>& reports,
                              uint64_t record_bytes, const Status& io_detail,
                              JobStats* stats) {
  uint32_t flags = 0;
  for (size_t t = 0; t < reports.size(); ++t) {
    const TaskReport& rep = reports[t];
    stats->map_task_records[t] = rep.processed;
    stats->map_task_attempts[t] = rep.attempts;
    stats->map_task_spilled_bytes[t] = rep.spilled_disk_bytes;
    stats->map_task_retries += rep.attempts - 1;
    stats->spilled_records += rep.spilled_records;
    stats->spilled_compressed_bytes += rep.spilled_disk_bytes;
    stats->pre_combine_records += rep.pre_combine_records;
    stats->map_output_records += rep.post_combine_records;
    flags |= rep.flags;
  }
  stats->map_output_bytes =
      static_cast<uint64_t>(stats->map_output_records) * record_bytes;
  // Raw width: what the spilled records occupy once re-expanded;
  // spilled_compressed_bytes is what actually reached disk.
  stats->spilled_raw_bytes =
      static_cast<uint64_t>(stats->spilled_records) * record_bytes;
  return FailJobByFlags(job_name, flags, io_detail, stats);
}

/// Hands partition `p`'s run of one task to `consume`: the spilled records
/// first, then the in-memory buffer, which is freed. On a spill read error
/// returns it (naming the file and offset) without touching the buffer.
template <typename K, typename V, typename ConsumeFn>
Status DrainRun(ShuffleEmitter<K, V>* em, size_t p, ConsumeFn&& consume) {
  HATEN2_RETURN_IF_ERROR(em->DrainSpill(p, consume));
  std::vector<std::pair<K, V>>& buf = em->buffers()[p];
  for (const auto& rec : buf) consume(rec);
  std::vector<std::pair<K, V>>().swap(buf);
  return Status::OK();
}

/// One reduce partition's groups: key -> values in arrival order. Keys
/// iterate ascending, so the reducer call order is a function of the key
/// set alone, not of how or in what order the runs arrived.
template <typename K, typename V>
using GroupMap = std::map<K, std::vector<V>>;

/// Calls the reducer once per group in ascending key order, frees the
/// groups, and returns how many there were.
template <typename K, typename V, typename KOut, typename VOut,
          typename ReduceFn>
int64_t ReducePartition(GroupMap<K, V>* groups, ReduceFn& reducer,
                        OutputEmitter<KOut, VOut>* out) {
  for (auto& [key, values] : *groups) reducer(key, values, out);
  const int64_t count = static_cast<int64_t>(groups->size());
  *groups = GroupMap<K, V>();
  return count;
}

}  // namespace haten2

#endif  // HATEN2_MAPREDUCE_JOB_CORE_H_
