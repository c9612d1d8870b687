#ifndef HATEN2_DISTRIBUTED_SUBPROCESS_JOB_H_
#define HATEN2_DISTRIBUTED_SUBPROCESS_JOB_H_

// Subprocess execution of one MapReduce job: the coordinator (the process
// that called Engine::Run) forks a gang of N workers through a WorkerPool
// and shards the job over them via the wire protocol (distributed/wire.h).
//
// Per-job protocol, in phases:
//
//   coordinator                         worker w (of W)
//   ----------------------------------  --------------------------------
//   kAssignment (tasks, partitions) ->
//                                       runs map tasks {t : t % W == w}
//                                       (same emitters, spill files,
//                                       combiner, and deterministic
//                                       failure draws as in-process)
//                                    <- kMapDone (per-task reports)
//                                    <- kMapRun* (spill-codec blocks)
//                                    <- kRunsDone
//   forwards each run to the owner
//   of its partition (p % W == w),
//   task-ascending per partition
//   kReduceRun* -> ... kStartReduce ->
//                                       groups + reduces owned
//                                       partitions ascending
//                                    <- kOutputRun* (per partition)
//                                    <- kWorkerDone
//   concatenates outputs partition-
//   ascending; reaps the gang
//
// Bit-identity with the in-process transport: a worker runs its map tasks,
// combiner, run drains, grouping and reduce loop through the same job core
// (mapreduce/job_core.h), and the coordinator folds the workers' task
// reports with the same FoldTaskReports. Reducers run in ascending key
// order on both transports. Per partition, runs are inserted
// task-ascending, each with its spill-drained records before its buffered
// records — the in-process drain order — which fixes each key's value
// order; how records of different keys interleave does not matter. Each
// shuffled run crosses the wire as a spill-codec block, which keeps
// per-key order but not the interleaving.
//
// Worker death (crash, kill injection, lost/corrupt/timed-out socket) fails
// the job with failure kind "worker_lost" and kAborted — the transient
// status the PlanScheduler's node retry re-runs with a fresh job id.

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "distributed/wire.h"
#include "distributed/worker_pool.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job_core.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill_codec.h"
#include "mapreduce/stats.h"
#include "util/memory_tracker.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {
namespace distributed {

/// Worker exit codes (beyond the child_main contract's 0 = clean).
inline constexpr int kWorkerExitInjectedKill = 17;
inline constexpr int kWorkerExitProtocolError = 3;

/// A frame of job `job` to or from `worker`.
inline WireFrame JobFrame(FrameType type, int worker, int64_t job,
                          int64_t a = 0, int64_t b = 0) {
  WireFrame f;
  f.type = type;
  f.worker = worker;
  f.job = job;
  f.a = a;
  f.b = b;
  return f;
}

/// The raw bytes of `items` (fixed-size report structs) as a payload.
template <typename T>
std::string RawPayload(const std::vector<T>& items) {
  if (items.empty()) return std::string();
  return std::string(reinterpret_cast<const char*>(items.data()),
                     items.size() * sizeof(T));
}

/// Output-record wire support: keys must be fixed-size; values fixed-size
/// or std::vector of fixed-size elements (the merge jobs' row vectors).
/// Other output types run on the in-process backend only.
template <typename T>
struct IsWireVectorValue : std::false_type {};
template <typename U>
struct IsWireVectorValue<std::vector<U>> : IsFixedSizeRecord<U> {};

template <typename K, typename V>
inline constexpr bool kWireSerializableOutput =
    IsFixedSizeRecord<K>::value &&
    (IsFixedSizeRecord<V>::value || IsWireVectorValue<V>::value);

template <typename K, typename V>
void SerializeOutputRecords(const std::vector<std::pair<K, V>>& records,
                            std::string* out) {
  if constexpr (IsFixedSizeRecord<V>::value) {
    for (const auto& rec : records) {
      out->append(reinterpret_cast<const char*>(&rec), sizeof(rec));
    }
  } else {
    using U = typename V::value_type;
    for (const auto& rec : records) {
      out->append(reinterpret_cast<const char*>(&rec.first), sizeof(K));
      uint64_t n = static_cast<uint64_t>(rec.second.size());
      out->append(reinterpret_cast<const char*>(&n), sizeof(n));
      out->append(reinterpret_cast<const char*>(rec.second.data()),
                  n * sizeof(U));
    }
  }
}

/// Appends `expected_records` decoded records to *out; IOError (naming
/// `context`) on any size mismatch.
template <typename K, typename V>
Status DeserializeOutputRecords(const std::string& payload,
                                int64_t expected_records,
                                const std::string& context,
                                std::vector<std::pair<K, V>>* out) {
  if constexpr (IsFixedSizeRecord<V>::value) {
    using Record = std::pair<K, V>;
    if (payload.size() !=
        static_cast<uint64_t>(expected_records) * sizeof(Record)) {
      return Status::IOError("output record payload size mismatch in " +
                             context);
    }
    Record rec;
    for (int64_t i = 0; i < expected_records; ++i) {
      std::memcpy(static_cast<void*>(&rec),
                  payload.data() + static_cast<size_t>(i) * sizeof(Record),
                  sizeof(Record));
      out->push_back(rec);
    }
  } else {
    using U = typename V::value_type;
    size_t pos = 0;
    for (int64_t i = 0; i < expected_records; ++i) {
      if (payload.size() - pos < sizeof(K) + sizeof(uint64_t)) {
        return Status::IOError("truncated output record in " + context);
      }
      K key;
      std::memcpy(static_cast<void*>(&key), payload.data() + pos, sizeof(K));
      pos += sizeof(K);
      uint64_t n = 0;
      std::memcpy(&n, payload.data() + pos, sizeof(n));
      pos += sizeof(n);
      if (n > (payload.size() - pos) / sizeof(U)) {
        return Status::IOError("truncated output vector in " + context);
      }
      V values(static_cast<size_t>(n));
      if (n > 0) {
        std::memcpy(values.data(), payload.data() + pos,
                    static_cast<size_t>(n) * sizeof(U));
      }
      pos += static_cast<size_t>(n) * sizeof(U);
      out->emplace_back(key, std::move(values));
    }
    if (pos != payload.size()) {
      return Status::IOError("trailing bytes after output records in " +
                             context);
    }
  }
  return Status::OK();
}

/// \brief Worker-side job execution; runs inside the fork child.
///
/// Returns the child exit code (0 = clean, including jobs the worker knows
/// will fail — the coordinator reads the failure from the task reports).
template <typename KMid, typename VMid, typename KOut, typename VOut,
          typename ReaderFn, typename ReduceFn>
int SubprocessWorkerMain(
    int fd, int worker, const ClusterConfig& config, const JobShape& shape,
    int64_t job_id, ReaderFn& reader, ReduceFn& reducer,
    const std::function<VMid(const VMid&, const VMid&)>& combiner) {
  using Record = std::pair<KMid, VMid>;
  const double timeout = config.worker_io_timeout_seconds;
  WireChannel ch(fd, "coordinator");

  WireFrame frame;
  if (!ch.ReadFrame(timeout, &frame).ok() ||
      frame.type != FrameType::kAssignment ||
      frame.payload.size() != sizeof(WireAssignment)) {
    return kWorkerExitProtocolError;
  }
  WireAssignment asn;
  std::memcpy(&asn, frame.payload.data(), sizeof(asn));
  const int W = asn.num_workers;
  const int num_partitions = shape.num_partitions;
  if (W <= 0 || worker >= W || asn.num_tasks != shape.num_tasks ||
      asn.num_partitions != num_partitions) {
    return kWorkerExitProtocolError;
  }

  // ---- Map, then combine: tasks {t : t % W == worker}, unmetered (the
  // coordinator owns the shuffle budget). ----
  std::vector<int> my_tasks;
  for (int t = worker; t < shape.num_tasks; t += W) my_tasks.push_back(t);
  std::vector<ShuffleEmitter<KMid, VMid>> emitters;
  emitters.reserve(my_tasks.size());
  std::vector<TaskReport> reports;
  int64_t completed_tasks = 0;
  for (int t : my_tasks) {
    emitters.push_back(MakeTaskEmitter<KMid, VMid>(config, shape, t, nullptr));
    reports.push_back(
        RunMapTask(config, shape, job_id, t, reader, &emitters.back()));
    if (!(reports.back().flags & kTaskGaveUp)) ++completed_tasks;
    if (asn.die_after_tasks > 0 && completed_tasks >= asn.die_after_tasks) {
      // Injected worker death: vanish without a word, spill files and all,
      // exactly as a machine loss would.
      ::_exit(kWorkerExitInjectedKill);
    }
  }
  bool job_fatal = AnyTaskFailed(reports);
  if (combiner && !job_fatal) {
    for (size_t i = 0; i < my_tasks.size(); ++i) {
      CombineTask(combiner, &emitters[i], &reports[i]);
    }
  }

  // ---- Encode runs before kMapDone so drain failures are reported in
  // the task flags. ----
  struct Run {
    int64_t task;
    int64_t partition;
    std::string block;
  };
  std::vector<Run> runs;
  for (size_t i = 0; i < my_tasks.size() && !job_fatal; ++i) {
    ShuffleEmitter<KMid, VMid>& em = emitters[i];
    for (size_t p = 0; p < static_cast<size_t>(num_partitions); ++p) {
      std::vector<Record> run;
      run.reserve(static_cast<size_t>(em.SpilledRecords(p)) +
                  em.buffers()[p].size());
      if (!DrainRun(&em, p, [&run](const Record& rec) { run.push_back(rec); })
               .ok()) {
        reports[i].flags |= kTaskSpillReadIO;
        job_fatal = true;
        break;
      }
      if (run.empty()) continue;
      Run out{my_tasks[i], static_cast<int64_t>(p), std::string()};
      EncodeSpillBlock(reinterpret_cast<const char*>(run.data()), run.size(),
                       sizeof(Record), sizeof(KMid), &out.block);
      runs.push_back(std::move(out));
    }
  }
  if (job_fatal) {
    for (auto& em : emitters) em.RemoveAllSpills();
    runs.clear();
  }

  WireFrame done = JobFrame(FrameType::kMapDone, worker, job_id,
                            static_cast<int64_t>(reports.size()));
  done.payload = RawPayload(reports);
  if (!ch.WriteFrame(done).ok()) return kWorkerExitProtocolError;
  for (Run& r : runs) {
    WireFrame f =
        JobFrame(FrameType::kMapRun, worker, job_id, r.task, r.partition);
    f.payload = std::move(r.block);
    if (!ch.WriteFrame(f).ok()) return kWorkerExitProtocolError;
  }
  if (!ch.WriteFrame(JobFrame(FrameType::kRunsDone, worker, job_id)).ok()) {
    return kWorkerExitProtocolError;
  }
  // The coordinator fails the job from the reports; nothing left to do.
  if (job_fatal) return 0;

  // ---- Group: insert forwarded runs in arrival order — the coordinator
  // sends task-ascending per partition, which fixes each key's value
  // order. ----
  std::vector<GroupMap<KMid, VMid>> groups(
      static_cast<size_t>(num_partitions));
  std::string decoded;
  while (true) {
    if (!ch.ReadFrame(timeout, &frame).ok()) return kWorkerExitProtocolError;
    if (frame.type == FrameType::kStartReduce) break;
    if (frame.type != FrameType::kReduceRun ||
        frame.payload.size() < kSpillBlockHeaderBytes || frame.b < 0 ||
        frame.b >= num_partitions || frame.b % W != worker) {
      return kWorkerExitProtocolError;
    }
    const std::string context = StrFormat(
        "forwarded run t%lld p%lld", static_cast<long long>(frame.a),
        static_cast<long long>(frame.b));
    Result<SpillBlockHeader> header = ParseSpillBlockHeader(
        frame.payload.data(), kSpillBlockHeaderBytes, context);
    if (!header.ok()) return kWorkerExitProtocolError;
    decoded.clear();
    if (!DecodeSpillBlockPayload(
             *header, frame.payload.data() + kSpillBlockHeaderBytes,
             frame.payload.size() - kSpillBlockHeaderBytes, sizeof(Record),
             sizeof(KMid), context, &decoded)
             .ok()) {
      return kWorkerExitProtocolError;
    }
    GroupMap<KMid, VMid>& partition = groups[static_cast<size_t>(frame.b)];
    Record rec;
    for (uint64_t i = 0; i < header->record_count; ++i) {
      std::memcpy(static_cast<void*>(&rec),
                  decoded.data() + i * sizeof(Record), sizeof(Record));
      partition[rec.first].push_back(rec.second);
    }
  }

  // ---- Reduce owned partitions ascending; stream outputs back. ----
  std::vector<WirePartitionReport> partition_reports;
  for (int p = worker; p < num_partitions; p += W) {
    OutputEmitter<KOut, VOut> out;
    WirePartitionReport pr;
    pr.partition = p;
    pr.groups = ReducePartition(&groups[static_cast<size_t>(p)], reducer, &out);
    partition_reports.push_back(pr);
    WireFrame f = JobFrame(FrameType::kOutputRun, worker, job_id, p,
                           static_cast<int64_t>(out.records().size()));
    SerializeOutputRecords<KOut, VOut>(out.records(), &f.payload);
    if (!ch.WriteFrame(f).ok()) return kWorkerExitProtocolError;
  }
  WireFrame worker_done = JobFrame(FrameType::kWorkerDone, worker, job_id);
  worker_done.payload = RawPayload(partition_reports);
  if (!ch.WriteFrame(worker_done).ok()) return kWorkerExitProtocolError;
  return 0;
}

/// \brief The subprocess transport's coordinator side (called by
/// Engine::Run when ClusterConfig::backend == "subprocess").
///
/// Fills `stats` (already named, numbered and shaped by the caller, who
/// records it) through the job core; failure kinds are those of
/// FoldTaskReports plus "worker_lost" (kAborted) when a worker process dies
/// or its channel breaks, which the PlanScheduler treats as transient and
/// retries with a fresh job id. `tracker` is the shuffle budget: workers
/// run unmetered and the coordinator charges the job's raw pre-combine
/// width once their reports are in.
template <typename KMid, typename VMid, typename KOut, typename VOut,
          typename ReaderFn, typename ReduceFn>
Result<std::vector<std::pair<KOut, VOut>>> RunSubprocessJob(
    const ClusterConfig& config, const JobShape& shape, WorkerPool* pool,
    MemoryTracker* tracker, ReaderFn& reader, ReduceFn& reducer,
    const std::function<VMid(const VMid&, const VMid&)>& combiner,
    JobStats* stats) {
  using Output = std::vector<std::pair<KOut, VOut>>;
  constexpr uint64_t kRecordBytes = sizeof(std::pair<KMid, VMid>);
  const double timeout = config.worker_io_timeout_seconds;
  const std::string& name = stats->name;
  const int64_t job_id = stats->job_id;
  const int num_tasks = shape.num_tasks;
  const int num_partitions = shape.num_partitions;
  const int W = pool->num_workers();
  WallTimer phase_timer;

  uint64_t charged_bytes = 0;
  // Every failure path reaps the gang (killing what still runs) and
  // releases the budget.
  auto fail = [&](Status status) -> Status {
    pool->FinishGang(/*kill=*/true);
    tracker->Release(charged_bytes);
    return status;
  };
  auto worker_lost = [&](int w, const Status& cause) -> Status {
    stats->failure = "worker_lost";
    return fail(Status::Aborted(StrFormat("job '%s': worker %d lost: %s",
                                          name.c_str(), w,
                                          cause.ToString().c_str())));
  };

  // The gang is forked per job: the children inherit this job's closures
  // (and the input they capture) through the fork image.
  Status spawned = pool->SpawnGang([&](int fd, int worker) {
    return SubprocessWorkerMain<KMid, VMid, KOut, VOut>(
        fd, worker, config, shape, job_id, reader, reducer, combiner);
  });
  if (!spawned.ok()) {
    stats->failure = "worker_lost";
    return Status::Aborted("job '" + name +
                           "': " + std::string(spawned.message()));
  }

  // ---- Map phase: assign, then collect reports and shuffled runs. ----
  for (int w = 0; w < W; ++w) {
    int64_t assigned = 0;
    for (int t = w; t < num_tasks; t += W) ++assigned;
    WireAssignment asn;
    asn.num_workers = W;
    asn.num_tasks = num_tasks;
    asn.num_partitions = num_partitions;
    asn.die_after_tasks = pool->PlanKillInjection(
        config.inject_worker_kill_after_tasks, assigned);
    WireFrame f = JobFrame(FrameType::kAssignment, w, job_id);
    f.payload.assign(reinterpret_cast<const char*>(&asn), sizeof(asn));
    Status s = pool->channel(w)->WriteFrame(f);
    if (!s.ok()) return worker_lost(w, s);
  }

  std::vector<TaskReport> reports(static_cast<size_t>(num_tasks));
  // Shuffled runs keyed (task, partition): raw spill-codec blocks forwarded
  // to reduce owners without decoding (record counts come from the block
  // headers). The ordered map gives the forwarding loop task-ascending
  // order per partition — the in-process drain order, which fixes each
  // key's value order.
  std::map<std::pair<int64_t, int64_t>, std::string> runs;
  std::map<std::pair<int64_t, int64_t>, int64_t> run_counts;
  for (int w = 0; w < W; ++w) {
    WireChannel* ch = pool->channel(w);
    WireFrame f;
    Status s = ch->ReadFrame(timeout, &f);
    if (!s.ok()) return worker_lost(w, s);
    if (f.type != FrameType::kMapDone) {
      return worker_lost(
          w, Status::IOError("protocol error: expected kMapDone"));
    }
    const size_t count = f.payload.size() / sizeof(TaskReport);
    if (f.payload.size() != count * sizeof(TaskReport) ||
        static_cast<int64_t>(count) != f.a) {
      return worker_lost(w, Status::IOError("malformed kMapDone payload"));
    }
    int64_t worker_tasks = 0;
    for (size_t i = 0; i < count; ++i) {
      TaskReport rep;
      std::memcpy(&rep, f.payload.data() + i * sizeof(rep), sizeof(rep));
      if (rep.task < 0 || rep.task >= num_tasks) {
        return worker_lost(w,
                           Status::IOError("task id out of range in report"));
      }
      reports[static_cast<size_t>(rep.task)] = rep;
      if (!(rep.flags & kTaskGaveUp)) ++worker_tasks;
    }
    pool->NoteTasksCompleted(w, worker_tasks);
    while (true) {
      Status rs = ch->ReadFrame(timeout, &f);
      if (!rs.ok()) return worker_lost(w, rs);
      if (f.type == FrameType::kRunsDone) break;
      if (f.type != FrameType::kMapRun) {
        return worker_lost(
            w, Status::IOError("protocol error: expected kMapRun"));
      }
      if (f.a < 0 || f.a >= num_tasks || f.b < 0 || f.b >= num_partitions) {
        return worker_lost(w, Status::IOError("run ids out of range"));
      }
      if (f.payload.size() < kSpillBlockHeaderBytes) {
        return worker_lost(w, Status::IOError("short shuffled-run block"));
      }
      Result<SpillBlockHeader> header = ParseSpillBlockHeader(
          f.payload.data(), kSpillBlockHeaderBytes,
          StrFormat("run t%lld p%lld from worker %d",
                    static_cast<long long>(f.a),
                    static_cast<long long>(f.b), w));
      if (!header.ok()) return worker_lost(w, header.status());
      run_counts[{f.a, f.b}] =
          static_cast<int64_t>(header->record_count);
      runs[{f.a, f.b}] = std::move(f.payload);
    }
  }
  // Combine time is folded into map_seconds: it runs inside the workers'
  // map phase.
  stats->phases.map_seconds = phase_timer.Lap();

  Status folded =
      FoldTaskReports(name, reports, kRecordBytes, Status::OK(), stats);
  if (!folded.ok()) return fail(folded);
  // Shuffle budget: charge the same raw pre-combine width the in-process
  // emitters charge, in one step once the workers report their counts.
  const uint64_t bytes =
      static_cast<uint64_t>(stats->pre_combine_records) * kRecordBytes;
  if (!tracker->Charge(bytes).ok()) {
    return fail(
        FailJobByFlags(name, kTaskBudgetExhausted, Status::OK(), stats));
  }
  charged_bytes = bytes;

  // ---- Shuffle phase: forward each run to its partition's owner. ----
  for (auto& [key, block] : runs) {
    const int64_t t = key.first;
    const int64_t p = key.second;
    const int owner = static_cast<int>(p % W);
    WireFrame f = JobFrame(FrameType::kReduceRun, owner, job_id, t, p);
    f.payload = std::move(block);
    Status s = pool->channel(owner)->WriteFrame(f);
    if (!s.ok()) return worker_lost(owner, s);
    const int64_t received = run_counts[key];
    stats->reduce_partition_records[static_cast<size_t>(p)] += received;
    stats->reduce_partition_bytes[static_cast<size_t>(p)] +=
        static_cast<uint64_t>(received) * kRecordBytes;
  }
  runs.clear();
  for (int w = 0; w < W; ++w) {
    Status s = pool->channel(w)->WriteFrame(
        JobFrame(FrameType::kStartReduce, w, job_id));
    if (!s.ok()) return worker_lost(w, s);
  }
  stats->phases.shuffle_seconds = phase_timer.Lap();

  // ---- Reduce phase: collect per-partition outputs. ----
  std::vector<std::string> partition_payloads(
      static_cast<size_t>(num_partitions));
  std::vector<int64_t> partition_counts(static_cast<size_t>(num_partitions),
                                        0);
  for (int w = 0; w < W; ++w) {
    WireChannel* ch = pool->channel(w);
    while (true) {
      WireFrame f;
      Status s = ch->ReadFrame(timeout, &f);
      if (!s.ok()) return worker_lost(w, s);
      if (f.type == FrameType::kWorkerDone) {
        const size_t count = f.payload.size() / sizeof(WirePartitionReport);
        if (f.payload.size() != count * sizeof(WirePartitionReport)) {
          return worker_lost(
              w, Status::IOError("malformed kWorkerDone payload"));
        }
        for (size_t i = 0; i < count; ++i) {
          WirePartitionReport pr;
          std::memcpy(&pr, f.payload.data() + i * sizeof(pr), sizeof(pr));
          stats->reduce_input_groups += pr.groups;
        }
        break;
      }
      if (f.type != FrameType::kOutputRun) {
        return worker_lost(
            w, Status::IOError("protocol error: expected kOutputRun"));
      }
      if (f.a < 0 || f.a >= num_partitions ||
          static_cast<int>(f.a % W) != w) {
        return worker_lost(
            w, Status::IOError("output partition out of range"));
      }
      partition_counts[static_cast<size_t>(f.a)] = f.b;
      partition_payloads[static_cast<size_t>(f.a)] = std::move(f.payload);
    }
  }
  pool->FinishGang(/*kill=*/false);

  Output output;
  for (int p = 0; p < num_partitions; ++p) {
    if (partition_counts[static_cast<size_t>(p)] == 0 &&
        partition_payloads[static_cast<size_t>(p)].empty()) {
      continue;
    }
    Status s = DeserializeOutputRecords<KOut, VOut>(
        partition_payloads[static_cast<size_t>(p)],
        partition_counts[static_cast<size_t>(p)],
        StrFormat("output partition %d", p), &output);
    if (!s.ok()) {
      stats->failure = "io_error";
      return fail(Status::IOError("job '" + name +
                                  "': " + std::string(s.message())));
    }
  }
  stats->reduce_output_records = static_cast<int64_t>(output.size());
  stats->phases.reduce_seconds = phase_timer.Lap();
  tracker->Release(charged_bytes);
  return output;
}

}  // namespace distributed
}  // namespace haten2

#endif  // HATEN2_DISTRIBUTED_SUBPROCESS_JOB_H_
