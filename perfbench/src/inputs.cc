#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "tensor/tensor_binary_io.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using haten2::Result;
using haten2::SparseTensor;

Result<SparseTensor> ZipfTensor(const std::vector<int64_t>& dims,
                                int64_t draws, double exponent,
                                uint64_t seed) {
  HATEN2_ASSIGN_OR_RETURN(SparseTensor x, SparseTensor::Create(dims));
  // One generator per mode: Rng caches the Zipf CDF of the last (n, s)
  // pair, so interleaving modes on one generator would rebuild it per draw.
  std::vector<haten2::Rng> mode_rngs;
  for (size_t m = 0; m < dims.size(); ++m) {
    mode_rngs.emplace_back(seed * 0x9e3779b97f4a7c15ULL + m + 1);
  }
  haten2::Rng values(seed ^ 0x5bd1e995u);
  x.Reserve(draws);
  std::vector<int64_t> idx(dims.size());
  for (int64_t e = 0; e < draws; ++e) {
    for (size_t m = 0; m < dims.size(); ++m) {
      idx[m] = static_cast<int64_t>(
          mode_rngs[m].Zipf(static_cast<uint64_t>(dims[m]), exponent));
    }
    x.AppendUnchecked(idx.data(), values.Uniform(0.5, 1.5));
  }
  x.Canonicalize();
  return x;
}

haten2::Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return haten2::Status::IOError("cannot open " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return haten2::Status::IOError("fsync failed for " + path);
  return haten2::Status::OK();
}

Result<std::string> WriteInput(const SparseTensor& x,
                               const std::string& workdir,
                               const std::string& name) {
  const std::string path = workdir + "/" + name + ".h2t";
  HATEN2_RETURN_IF_ERROR(haten2::WriteTensorBinary(x, path));
  HATEN2_RETURN_IF_ERROR(SyncFile(path));
  return path;
}

Result<SparseTensor> LoadInput(const std::string& path, Tracer* tracer) {
  Tracer::Scope span(tracer, "tensor.load");
  HATEN2_ASSIGN_OR_RETURN(SparseTensor x, haten2::ReadTensorAuto(path));
  x.Canonicalize();
  return x;
}

void SplitIterations(const haten2::DecompositionTrace& trace, size_t first,
                     std::vector<double>* first_iter,
                     std::vector<double>* later_iters) {
  for (size_t i = first; i < trace.iterations.size(); ++i) {
    const double s = trace.iterations[i].wall_seconds;
    if (i == first) {
      first_iter->push_back(s);
    } else {
      later_iters->push_back(s);
    }
  }
}

bool MoreReps(double start, double seconds, const std::vector<double>& reps) {
  return reps.empty() || NowSeconds() - start + reps.back() <= seconds;
}

bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (setup_s.size() < 40 && total < 0.5);
}

void SetEndToEnd(Report* report, const std::vector<double>& setup_s,
                 const std::vector<double>& decompose_s,
                 const std::vector<double>& first_iter_s,
                 const std::vector<double>& steady_iter_s,
                 double peak_rss_mib) {
  report->Set("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
  report->Set("decompose_s", Median(decompose_s), "s",
              static_cast<int64_t>(decompose_s.size()));
  report->Set("first_iter_s", Median(first_iter_s), "s",
              static_cast<int64_t>(first_iter_s.size()));
  report->Set("steady_iter_s", Median(steady_iter_s), "s",
              static_cast<int64_t>(steady_iter_s.size()));
  report->Set("peak_rss_mb", peak_rss_mib, "MiB", 1);
}

void ResetPeakRssAfterInputs(Report* report) {
  report->Info("peak_rss_scope", ResetPeakRss()
                                     ? "after input generation"
                                     : "whole process (reset unsupported)");
}

CopyCeiling MeasureCopyCeiling() {
  CopyCeiling out;
  out.llc_bytes = LastLevelCacheBytes();
  // Source and destination together span at least 4x the LLC, so every
  // pass streams from DRAM.
  const uint64_t llc = out.llc_bytes > 0 ? out.llc_bytes : (64ULL << 20);
  out.array_bytes = 2 * llc;
  const size_t n = static_cast<size_t>(out.array_bytes / sizeof(double));
  std::unique_ptr<double[]> src(new double[n]);
  std::unique_ptr<double[]> dst(new double[n]);
  for (size_t i = 0; i < n; ++i) {
    src[i] = static_cast<double>(i & 1023);
    dst[i] = 0.0;
  }
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    const double start = NowSeconds();
    std::memcpy(dst.get(), src.get(), n * sizeof(double));
    best = std::min(best, NowSeconds() - start);
    src[static_cast<size_t>(pass)] = dst[n - 1 - static_cast<size_t>(pass)];
  }
  // STREAM convention: a copy moves 2 bytes per array byte (read + write).
  out.gbps = 2.0 * static_cast<double>(out.array_bytes) / best / 1e9;
  return out;
}

}  // namespace perfbench
