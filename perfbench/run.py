"""Benchmark for varbounds: verdict latency and throughput on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the same loop with every other issue traced and reports per-layer
metrics and the tracing overhead.  Times are scaled by a reference kernel
(see ``measure.py``); the wall times are printed beside them.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and a copy of the result,
with the environment, are written under ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
# fixed before numpy loads: the matrices are small, and a BLAS thread pool
# on a 2-core VM only adds jitter
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import varbounds, build the inputs and exit "
                             "(one set-up, timed by the parent run)")
    return parser.parse_args(argv)


def load_program():
    """Put the checkout's ``src/`` first on the path and import the modules
    that drive it; exits with status 2 if the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "varbounds", "__init__.py")):
        print(f"perfbench: no varbounds sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import workloads
    return workloads


def build_inputs(workloads, workload, seed, workdir):
    cases = workloads.build_cases(workload, seed)
    return cases, workloads.Requests(cases, workdir)


def time_setups(args, measure):
    """(scaled, wall) times of fresh interpreters that import varbounds and
    build the workload's inputs, ``SETUP_REPEATS`` times; each is scaled by
    the interpreted reference kernel timed just before and after it, since
    set-up is mostly the interpreter loading modules."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    ref_before = measure.reference_s("interpreted")
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls, which rounds the
        # measured time up to its 50 ms sleep steps
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        ref_after = measure.reference_s("interpreted")
        times.append((wall * measure.scale("interpreted", ref_before,
                                           ref_after), wall))
        ref_before = ref_after
    return times


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def main(argv=None):
    # a stopped run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.setup_only:
            build_inputs(workloads, args.workload, args.seed, workdir)
            return 0
        return measure_run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_run(args, workloads, workdir):
    import measure

    setup_runs = [] if args.trace else time_setups(args, measure)
    cases, requests = build_inputs(workloads, args.workload, args.seed,
                                   workdir)
    tally = measure.run_loop(cases, requests, args.seconds, bool(args.trace),
                             workloads.REFERENCE_KERNEL[args.workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, wrong, issued, replay, reports = measure.quality(tally)
    env = environment()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={len(cases)} rounds={tally.rounds} "
          f"elapsed={tally.elapsed_s:.2f}s")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"attempted={tally.attempted} failed={tally.failed} "
          f"failed_ratio={tally.failed / tally.attempted:.6f} "
          f"wrong_verdict_ratio={wrong / max(1, issued):.6f} "
          f"({wrong} of {issued} verdicts) "
          f"reports_not_replayable={replay} of {reports}")
    for key, stats in tally.inputs.items():
        for failure in stats.failures[:1]:
            print(f"failed {key}: {failure}")
    for problem in problems[:20]:
        print(f"INCORRECT {problem}")

    notes = {}
    if args.trace:
        metrics, table = measure.per_layer(tally)
        print(f"{'layer':34s} {'calls/op':>10s} {'s/op':>11s} "
              f"{'self s/op':>11s} {'points/op':>12s}")
        for name, row in table.items():
            print(f"{name:34s} {row['calls']:10.1f} {row['s']:11.6f} "
                  f"{row['self_s']:11.6f} {row['points']:12.0f}")
        write_spans(args, cases, tally)
    else:
        metrics, notes = measure.end_to_end(tally, setup_runs, peak_rss_mb)
        print("notes " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result = {"correct": not problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(
            OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "notes": notes,
                   "wrong_verdicts": wrong, "verdicts": issued,
                   "problems": problems,
                   "issues": {key: stats.issues
                              for key, stats in tally.inputs.items()}},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def write_spans(args, cases, tally):
    """Spans of each input's fastest traced issue, one JSON line per input,
    times in ns from the start of the issue's first span."""
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for case in cases:
            spans = tally.inputs[case.key].best_spans
            if not spans:
                continue
            t0 = spans[0][2]
            fh.write(json.dumps({
                "input": case.key, "dist": case.dist, "exprs": case.exprs,
                "n": case.n, "fields": ["layer", "parent", "start_ns",
                                        "end_ns", "points", "width"],
                "spans": [[s[0], s[1], s[2] - t0, s[3] - t0, s[4], s[5]]
                          for s in spans]}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
