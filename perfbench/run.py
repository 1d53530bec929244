#!/usr/bin/env python3
"""fastcolor benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload iterate-quickstart --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Workloads (see perfbench/README.md): iterate-quickstart, decode-defaults,
train-defaults; ``all`` runs each in its own child process, one after
the other. A run sets its workload up ``SETUP_REPEATS`` times, then
repeats the workload's operation while the next one is expected to end
within ``--seconds``, setting up once more before an operation whenever
``SETUP_INTERVAL_S`` has passed since the last set-up. Every operation's
outputs are checked.

Human-readable lines go to stdout first; the last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones in
BENCHMARK.json, with ``--trace 1`` the per-layer ones, taken with
tracing wrappers installed around fastcolor's public functions. The exit
code is 0 only when every operation passed its checks.

The fastcolor package is imported from ``src/`` next to this directory,
never from an installed copy. NumPy's BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NAMES = ("iterate-quickstart", "decode-defaults", "train-defaults")
# Set-ups take 12-120 ms, and on a shared host CPU speed can drift for
# seconds at a time, so set-ups are sampled across the whole run, not only
# at its start.
SETUP_REPEATS = 5
SETUP_INTERVAL_S = 2.0
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="fastcolor benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> list[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            print(f"[{name}] no result (exit code {proc.returncode})", file=sys.stderr)
            correct, attempted, failed = False, attempted + 1, failed + 1
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fastcolor", "__init__.py")):
        print(f"error: fastcolor sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    import numpy as np

    import fastcolor
    import tracing
    import workloads

    if os.path.dirname(os.path.abspath(fastcolor.__file__)) != os.path.join(SRC, "fastcolor"):
        print(f"error: imported fastcolor from {fastcolor.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"env nproc {os.cpu_count()} numpy {np.__version__} blas_threads {BLAS_THREADS} "
          f"python {platform.python_version()}")

    tracer = patched = None
    if args.trace:
        tracer = tracing.Tracer(float32=wl.cfg.dtype == "float32")
        patched = tracing.install(tracer, callers=[workloads])

    setup_times = []

    def set_up():
        if tracer:
            tracer.begin("setup", f"setup-{len(setup_times)}")
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end()
            # setup() builds cfg; the float64-input share is judged against it
            tracer.float32 = wl.cfg.dtype == "float32"
        return time.perf_counter()

    for _ in range(SETUP_REPEATS):
        last_setup = set_up()
    attempted = failed = 0
    op_times, loop_times = [], []
    start = time.perf_counter()
    while True:
        t_loop = time.perf_counter()
        if t_loop - last_setup >= SETUP_INTERVAL_S:
            last_setup = set_up()
        attempted += 1
        wl.failures.clear()
        if tracer:
            tracer.begin("op", f"op-{attempted - 1}")
        try:
            op_times.append(wl.op())
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            wl.failures.append("operation raised")
        if tracer:
            tracer.end()
        if wl.failures:
            failed += 1
            for msg in wl.failures:
                print(f"check failed: {msg}", file=sys.stderr)
        loop_times.append(time.perf_counter() - t_loop)
        if time.perf_counter() - start + statistics.median(loop_times) > args.seconds:
            break

    if patched:
        tracing.uninstall(patched)
    correct = failed == 0
    print(f"ops {attempted} failed {failed} ops_failed_share {failed / attempted:.6g} share")
    if not op_times:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    op_s = statistics.median(op_times)
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"metric setup_s {setup_s:.6g} s (median of {len(setup_times)})")
    print(f"metric peak_rss_mb {peak_rss_mb:.6g} MB")
    print(f"metric op_s {op_s:.6g} s (median of {len(op_times)})")
    print("setup_times_s " + " ".join(f"{t:.4g}" for t in setup_times))
    print("op_times_s " + " ".join(f"{t:.4g}" for t in op_times))
    for name, value, unit in wl.report():
        print(f"metric {name} {value:.6g} {unit}")

    if tracer:
        metrics = tracing.per_layer_metrics(tracer, op_s)
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.csv")
        tracer.write(trace_path, f"workload={args.workload} seed={args.seed}")
        print(f"trace {trace_path} spans_dropped {tracer.dropped}")
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
                   "op_s": (op_s, "s")}

    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        print("error: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
