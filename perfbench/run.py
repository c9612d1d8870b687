#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the program and the perfbench
driver from source (RelWithDebInfo) under .bench_build/, gives the run a
fresh private work directory for its inputs, checkpoints and spills, and
prints every metric with its unit and sample count. The last line of
standard output is one JSON object: correct / attempted / failed and the
metrics BENCHMARK.json lists, the end-to-end ones with --trace 0 and the
per-layer ones with --trace 1. `--workload all` runs every workload in turn.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170.0


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build(log):
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            ["cmake", "--build", str(out), "--target", "perfbench",
             "-j", str(min(4, os.cpu_count() or 1))],
        ]
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                return None
    # Flush the build's output now, so its write-back does not land in the
    # timed part of the run.
    os.sync()
    binary = out / "perfbench"
    return binary if binary.is_file() else None


# The per-layer metrics each workload exercises; the traced run of a
# workload must report exactly these, and every other per-layer metric of
# BENCHMARK.json is reported as 0 with n=0.
COMMON_LAYERS = ["tensor.load_s", "core.unattributed_s",
                 "core.unattributed_frac", "trace.overhead_frac",
                 "error_rate"]
TUCKER_LAYERS = [
    "core.contract_s", "core.tucker_factor_s", "mapreduce.jobs",
    "mapreduce.intermediate_records_max",
    "mapreduce.intermediate_bytes_total", "mapreduce.map_s",
    "mapreduce.shuffle_s", "mapreduce.reduce_s", "mapreduce.reduce_skew",
    "mapreduce.plan_overhead_s", "sim_makespan_s"]
WORKLOAD_LAYERS = {
    "cp-incore-zipf": COMMON_LAYERS + [
        "tensor.kruskal_fit_s", "linalg.csf_build_s", "linalg.csf_mttkrp_s",
        "linalg.csf_mttkrp_gbps", "linalg.stream_copy_gbps",
        "linalg.mttkrp_ceiling_frac", "linalg.fingerprint_s",
        "linalg.dense_solve_s", "core.contract_s", "core.to_dense_s",
        "core.cache_lookup_s", "core.cache_layout_hit_ratio"],
    "tucker-dataflow-uniform": COMMON_LAYERS + TUCKER_LAYERS,
    "ingest-refit-serve": COMMON_LAYERS + [
        "tensor.kruskal_fit_s", "tensor.merge_delta_s", "linalg.csf_patch_s",
        "core.apply_delta_s", "core.patch_reuse_ratio", "core.refit_s",
        "core.checkpoint_write_s", "serving.install_s",
        "serving.execute_us_p50.topk", "serving.execute_us_p50.neighbors",
        "serving.execute_us_p50.concepts", "serving.queue_wait_ms_p50",
        "serving.cache_hit_ratio", "freshness_s_p50", "query_ms_p50",
        "query_ms_p99", "query_qps"],
    "tucker-dataflow-subprocess": COMMON_LAYERS + TUCKER_LAYERS + [
        "distributed.wire_bytes", "distributed.wire_per_shuffle_byte",
        "distributed.restarts"],
}


def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def code_digest():
    """Hash of the sources the driver is built from: the program's src/ and
    the benchmark's own sources and build file."""
    files = [HERE / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE / "src"):
        files += [p for p in tree.rglob("*") if p.is_file()]
    digest = hashlib.sha256(BUILD_TYPE.encode())
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_counts(workload, seed, counts):
    """Deterministic counts must repeat exactly across runs of one seed of
    the same code; a change to the code starts a fresh record. A count an
    earlier run did not report is added to the record."""
    store = build_dir() / "counts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-seed{seed}-{code_digest()}.json"
    previous = json.loads(path.read_text()) if path.exists() else {}
    drift = sorted(k for k in counts
                   if k in previous and previous[k] != counts[k])
    if drift:
        print(f"FAILED deterministic counts drifted from an earlier run "
              f"of seed {seed}: {', '.join(drift)}")
        return False
    if set(counts) - set(previous):
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**previous, **counts}, sort_keys=True))
        tmp.replace(path)
    return True


def run_binary(binary, args, workdir, out, trace_out, deadline):
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={workdir}", f"--out={out}"]
    if args.trace:
        cmd.append(f"--trace_out={trace_out}")
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The subprocess backend forks workers into the same session.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {args.workload} timed out", file=sys.stderr)
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def run_workload(binary, args, deadline):
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        out = workdir / "result.json"
        trace_dir = build_dir() / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = trace_dir / f"{args.workload}-seed{args.seed}.json"
        code = run_binary(binary, args, workdir, out, trace_out, deadline)
        if code != 0 or not out.is_file():
            return None
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(args, result):
    """Prints the run's numbers and returns the final JSON object."""
    specs = metric_specs(args.trace)
    names = [m["name"] for m in specs]
    metrics = result["metrics"]
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if not check_counts(args.workload, args.seed, result["counts"]):
        failed += 1
    attempted += 1
    metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio",
                             "samples": attempted}
    if args.trace:
        exercised = WORKLOAD_LAYERS[args.workload]
        missing = [n for n in exercised if n not in metrics]
        unexpected = [m["name"] for m in specs
                      if m["name"] in metrics and m["name"] not in exercised]
        if missing or unexpected:
            print(f"perfbench: traced {args.workload} lacks {missing}, "
                  f"reports unlisted {unexpected}", file=sys.stderr)
            return None
        for m in specs:
            if m["name"] not in exercised:
                metrics[m["name"]] = {"value": 0.0, "unit": m["unit"],
                                      "samples": 0}
    info = result["info"]
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: nproc={info.get('nproc')} "
          f"build={info.get('build_type')} llc_bytes={info.get('llc_bytes')} "
          f"peak_rss={info.get('peak_rss_scope')}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']:<6s} "
              f"(n={m['samples']})")
    print(f"  deterministic counts: "
          f"{json.dumps(result['counts'], sort_keys=True)}")
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"perfbench: result lacks {', '.join(missing)}", file=sys.stderr)
        return None
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }


WORKLOADS = ["cp-incore-zipf", "tucker-dataflow-uniform",
             "ingest-refit-serve", "tucker-dataflow-subprocess"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    log_path = build_dir() / "build.log"
    build_dir().mkdir(parents=True, exist_ok=True)
    with open(log_path, "a") as log:
        binary = build(log)
    if binary is None:
        print(f"perfbench: build failed; see {log_path}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        one = argparse.Namespace(**vars(args))
        one.workload = workload
        # Counted from after the build, which only the first run pays for.
        deadline = time.monotonic() + RUN_TIMEOUT_S
        result = run_workload(binary, one, deadline)
        final = summarize(one, result) if result is not None else None
        if final is None:
            print(f"perfbench: {workload} produced no result",
                  file=sys.stderr)
            return 1
        print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
