// perfbench: runs one workload of the repository benchmark and writes its
// metrics, counts and checks as JSON. perfbench/run.py builds this binary,
// gives it a private work directory and prints the result.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --workdir=DIR --out=RESULT.json [--trace_out=SPANS.json]
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "common.h"
#include "util/flags.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimized build (%s); "
               "configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  haten2::FlagParser flags(argc, argv);
  haten2::Status valid = flags.Validate(
      {"workload", "seed", "seconds", "trace", "workdir", "out", "trace_out"});
  haten2::Result<int64_t> seed = flags.GetInt("seed", 1);
  haten2::Result<double> seconds = flags.GetDouble("seconds", 10.0);
  RunOptions opt;
  opt.workload = flags.GetString("workload", "");
  opt.workdir = flags.GetString("workdir", "");
  const std::string out = flags.GetString("out", "");
  if (!valid.ok() || !seed.ok() || !seconds.ok() || opt.workdir.empty() ||
      out.empty() || *seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: bad arguments%s%s\n",
                 valid.ok() ? "" : ": ", valid.ToString().c_str());
    return 2;
  }
  opt.seed = static_cast<uint64_t>(*seed);
  opt.seconds = *seconds;
  opt.trace = flags.GetString("trace", "0") == "1";

  Tracer tracer(opt.trace, opt.workload + "/seed-" + std::to_string(opt.seed));
  Report report;
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Info("llc_bytes", std::to_string(LastLevelCacheBytes()));
  const double run_start = NowSeconds();
  if (opt.workload == "cp-incore-zipf") {
    RunCpIncoreZipf(opt, &tracer, &report);
  } else if (opt.workload == "tucker-dataflow-uniform") {
    RunTuckerDataflow(opt, /*subprocess=*/false, &tracer, &report);
  } else if (opt.workload == "tucker-dataflow-subprocess") {
    RunTuckerDataflow(opt, /*subprocess=*/true, &tracer, &report);
  } else if (opt.workload == "ingest-refit-serve") {
    RunIngestRefitServe(opt, &tracer, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const double run_seconds = NowSeconds() - run_start;
  report.Set("error_rate",
             static_cast<double>(report.failed()) /
                 static_cast<double>(std::max<int64_t>(1, report.attempted())),
             "ratio", report.attempted());
  if (opt.trace) {
    // Spans wrap only the benchmark's own calls, so the traced run differs
    // from the untraced one by the spans it records: their count times the
    // measured cost of one, as a share of the run.
    report.Set("trace.overhead_frac",
               static_cast<double>(tracer.size()) * SpanCostSeconds() /
                   run_seconds,
               "ratio", tracer.size());
    const std::string trace_out = flags.GetString("trace_out", "");
    if (!trace_out.empty()) {
      haten2::Status written = tracer.WriteJson(trace_out);
      if (!written.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
        return 1;
      }
    }
  }
  haten2::Status written = report.WriteJson(out);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}
