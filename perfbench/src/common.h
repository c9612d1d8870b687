// Shared plumbing of the repository benchmark: spans, sample statistics,
// the metric report, and the output checks every workload counts.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double NowSeconds();

/// Median / interpolated quantile of a sample (the input is copied).
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

/// Cost of recording one span (open + close) on this machine, in seconds.
double SpanCostSeconds();

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMiB();

/// Resets the peak resident set (VmHWM) to the current resident set, so a
/// later PeakRssMiB() leaves out what input generation used. Returns false
/// when the kernel does not support the reset.
bool ResetPeakRss();

/// Last-level cache size in bytes as the kernel reports it (0 if unknown).
uint64_t LastLevelCacheBytes();

/// \brief In-memory span recorder for the traced run.
///
/// Spans wrap the benchmark's own calls into the program's public
/// functions; nothing inside the program is instrumented. When disabled,
/// Scope only measures (the untraced run records nothing).
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    double start = 0.0;
    double end = 0.0;
  };

  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)) {}

  /// RAII span. Seconds() is valid after Stop() or destruction; Stop() lets
  /// the caller read the duration while the scope is still open.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope() { Stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double Stop();

   private:
    Tracer* tracer_;
    int id_ = -1;
    int saved_parent_ = -1;
    double start_ = 0.0;
    double seconds_ = -1.0;
  };

  /// Sum of the durations of spans with this name.
  double InclusiveSeconds(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  int64_t size() const { return static_cast<int64_t>(spans_.size()); }
  /// Durations of the individual spans with this name, in order.
  std::vector<double> Durations(const std::string& name) const;

  haten2::Status WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// \brief The numbers one benchmark run produces.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples);

  /// Counts one attempted operation; a false `ok` counts it as failed and
  /// prints `what` with `detail`.
  bool Attempt(bool ok, const std::string& what,
               const std::string& detail = "");
  bool AttemptStatus(const haten2::Status& s, const std::string& what) {
    return Attempt(s.ok(), what, s.ok() ? "" : s.ToString());
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Records the deterministic counts of one repetition of the workload's
  /// unit of work. Every repetition of one run must report identical
  /// counts; a mismatch is counted as a failed check.
  void RecordCounts(const std::map<std::string, double>& counts);
  /// A count that is compared only across runs of one seed (by run.py),
  /// not across repetitions within the run.
  void SetCount(const std::string& name, double value) {
    counts_[name] = value;
  }

  void Info(const std::string& key, const std::string& value);

  haten2::Status WriteJson(const std::string& path) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> counts_;
  bool has_counts_ = false;
  std::map<std::string, std::string> info_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Relative difference |a − b| / max(|b|, tiny).
double RelDiff(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
