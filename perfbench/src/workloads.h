// The benchmark's workloads. Each one generates its inputs from the seed,
// writes them under the run's private work directory, reads them back
// through the program's tensor I/O, and drives the program's public APIs
// the way haten2_cli / haten2_serve do.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "mapreduce/stats.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // private to this run; removed by the caller
};

void RunCpIncoreZipf(const RunOptions& opt, Tracer* tracer, Report* report);
void RunTuckerDataflow(const RunOptions& opt, bool subprocess,
                       Tracer* tracer, Report* report);
void RunIngestRefitServe(const RunOptions& opt, Tracer* tracer,
                         Report* report);

// ---- inputs (inputs.cc) ----

/// A 3-way tensor whose coordinates are independent Zipf draws per mode
/// (entity popularity), values uniform in [0.5, 1.5); duplicate draws are
/// summed by Canonicalize, so the stored nnz is a little below `draws`.
haten2::Result<haten2::SparseTensor> ZipfTensor(
    const std::vector<int64_t>& dims, int64_t draws, double exponent,
    uint64_t seed);

/// Flushes a written input to disk, so its write-back does not land inside
/// the timed part of the run.
haten2::Status SyncFile(const std::string& path);

/// Writes `x` with the binary tensor writer, syncs it, returns the path.
haten2::Result<std::string> WriteInput(const haten2::SparseTensor& x,
                                       const std::string& workdir,
                                       const std::string& name);

/// Reads a tensor file back through ReadTensorAuto and canonicalizes it,
/// inside a "tensor.load" span.
haten2::Result<haten2::SparseTensor> LoadInput(const std::string& path,
                                               Tracer* tracer);

// ---- shared measurement helpers (inputs.cc) ----

/// Splits a decomposition trace (from `first` on) into the first
/// iteration's wall seconds and the later iterations' wall seconds.
void SplitIterations(const haten2::DecompositionTrace& trace, size_t first,
                     std::vector<double>* first_iter,
                     std::vector<double>* later_iters);

/// Whether another repetition of a workload's unit of work fits in the
/// run: always the first, then only when the last one's duration still ends
/// within `seconds` of `start`, so a run measures at most its budget.
bool MoreReps(double start, double seconds, const std::vector<double>& reps);

/// Whether to repeat set-up once more: at least 3 times, and while the
/// samples add up to under half a second (at most 40 times), so that a
/// millisecond set-up still yields a steady median.
bool MoreSetups(const std::vector<double>& setup_s);

/// Sets the five end-to-end metrics every workload reports; `peak_rss_mib`
/// is this process's resident high-water mark (PeakRssMiB()).
void SetEndToEnd(Report* report, const std::vector<double>& setup_s,
                 const std::vector<double>& decompose_s,
                 const std::vector<double>& first_iter_s,
                 const std::vector<double>& steady_iter_s,
                 double peak_rss_mib);

/// Resets the peak-RSS mark once a workload's inputs are written and
/// released, so peak_rss_mb covers the timed read, set-up and decomposition
/// and not the input generator; records in the run's info whether the
/// kernel allowed the reset.
void ResetPeakRssAfterInputs(Report* report);

/// STREAM-style copy ceiling: the best of several copies between two arrays
/// of twice the last-level cache each, in GB/s (read + write bytes).
struct CopyCeiling {
  double gbps = 0.0;
  uint64_t array_bytes = 0;
  uint64_t llc_bytes = 0;
};
CopyCeiling MeasureCopyCeiling();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
