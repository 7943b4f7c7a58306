"""The request loop and the statistics the benchmark reports.

One client issues requests in a closed loop: the next request starts when
the previous one has returned.  The loop walks the workload's inputs in a
fixed order, round after round, so every input is issued several times and
its issues are spread over the whole run.

Host contention on a small shared VM slows every instruction by up to 2x for
seconds to minutes at a time (CPU time rises with wall time, so it is not
scheduling), and no statistic over one run can remove a phase that covers
the whole run.  The loop therefore times a fixed reference kernel before
every request and after the last one, and scales each request's latency by
the kernel's nominal time over the mean of the two reference times around
it.  A reported time is the time the request would take on a host where the
kernel takes its nominal time, about its time on an unloaded host: a request
that does less work reads lower, and a slower host moves the request and the
kernel together.  Contention slows interpreted code and streaming over large
arrays by different factors, so each workload names the kernel that moves
with its requests.  The wall times are kept beside the scaled ones and
printed with every run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import tracing

MIN_ROUNDS = 2
TAIL_BEYOND = 10

REF_REPEATS = 3
_REF_GRID = np.linspace(-3.0, 3.0, 2000)
_REF_SAMPLE = np.linspace(0.001, 1.0, 200_000)
_REF_OUT = (np.empty_like(_REF_SAMPLE), np.empty_like(_REF_SAMPLE))


def _interpreted_once():
    """Interpreted loops over small containers, then elementwise numpy on a
    quadrature-sized grid: the mix of a bound report or a chain."""
    acc = 0.0
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        acc += (i % 7) * 1.25
    for k in range(40):
        acc += float(np.sum(np.exp(-_REF_GRID * _REF_GRID * (1 + k * 0.01))
                            * np.sin(_REF_GRID * k)))
    return acc


def _arrays_once():
    """Elementwise numpy over a sample-sized array: the mix of Monte Carlo
    sampling and assembly.  The arrays are preallocated, so that the time
    does not depend on what the allocator holds after the program's own
    requests."""
    acc = 0.0
    a, b = _REF_OUT
    for k in (1.0, 2.0):
        np.multiply(_REF_SAMPLE, k, out=a)
        np.log(a, out=a)
        np.sqrt(_REF_SAMPLE, out=b)
        np.multiply(a, b, out=a)
        acc += float(a.sum())
    return acc


# kernel -> (function, nominal seconds: about the median of ``reference_s``
# on an unloaded 2-vCPU Xeon VM, Python 3.11, numpy 2.4 with one BLAS thread)
REFERENCES = {"interpreted": (_interpreted_once, 0.0018),
              "arrays": (_arrays_once, 0.0016)}


def reference_s(kind):
    """Wall time of reference kernel ``kind`` now: median of
    ``REF_REPEATS``."""
    kernel = REFERENCES[kind][0]
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(kind, ref_before, ref_after):
    """Factor from wall to scaled time for work timed between two reference
    measurements of kernel ``kind``."""
    return 2.0 * REFERENCES[kind][1] / (ref_before + ref_after)


@dataclass
class InputStats:
    issues: list = field(default_factory=list)  # (round, wall s, scaled s)
    traced_s: list = field(default_factory=list)  # scaled s of traced issues
    best_spans: list = field(default_factory=list)  # fastest traced issue's
    best_scale: float = 0.0  # wall to scaled time for that issue
    checked: object = None  # output check of the first successful issue
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)


@dataclass
class Tally:
    inputs: dict
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    elapsed_s: float = 0.0
    reference_s: list = field(default_factory=list)
    host_slowdown: float = 0.0  # median reference time over nominal


def run_loop(cases, requests, seconds, trace, reference) -> Tally:
    """Issue the cases round after round until ``seconds`` have passed and
    at least ``MIN_ROUNDS`` rounds are complete, scaling latencies by the
    reference kernel named ``reference``.

    With ``trace`` set, issues alternate between traced and untraced, so
    both kinds see the same inputs and the same host phases.
    """
    tracer = tracing.Tracer()
    tally = Tally({case.key: InputStats() for case in cases})
    start = time.perf_counter()
    ref_before = reference_s(reference)
    tally.reference_s.append(ref_before)
    while True:
        for index, case in enumerate(cases):
            if (tally.rounds >= MIN_ROUNDS
                    and time.perf_counter() - start >= seconds):
                tally.elapsed_s = time.perf_counter() - start
                tally.host_slowdown = (statistics.median(tally.reference_s)
                                       / REFERENCES[reference][1])
                return tally
            stats = tally.inputs[case.key]
            traced = trace and (tally.rounds + index) % 2 == 1
            tally.attempted += 1
            try:
                if traced:
                    with tracer.request() as spans:
                        t0 = time.perf_counter()
                        outcome = requests.issue(case)
                        latency = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    outcome = requests.issue(case)
                    latency = time.perf_counter() - t0
            except Exception as err:  # a failed request is counted, not fatal
                tally.failed += 1
                stats.failures.append(f"{type(err).__name__}: {err}")
                ref_before = reference_s(reference)
                continue
            ref_after = reference_s(reference)
            tally.reference_s.append(ref_after)
            factor = scale(reference, ref_before, ref_after)
            ref_before = ref_after
            _record(stats, requests.check(case, outcome), tally.rounds,
                    latency, factor, spans if traced else None)
        tally.rounds += 1


def _record(stats, checked, round_, latency, factor, spans):
    stats.problems.extend(checked.problems)
    if stats.checked is None:
        stats.checked = checked
    elif checked.signature != stats.checked.signature:
        stats.problems.append("verdicts differ between issues of one input")
    if spans is None:
        stats.issues.append((round_, latency, latency * factor))
        return
    if not stats.traced_s or latency * factor < min(stats.traced_s):
        stats.best_spans, stats.best_scale = spans, factor
    stats.traced_s.append(latency * factor)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values):
    """(value, percentile) of the highest percentile that has at least
    ``TAIL_BEYOND`` samples above it.  With too few samples for that
    percentile to lie above the median, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quality(tally):
    """Correctness figures: problems, wrong verdicts, verdicts issued,
    report documents that fail to load back, report documents checked."""
    problems, wrong, issued, replay, reports = [], 0, 0, 0, 0
    for key, stats in tally.inputs.items():
        problems += [f"{key}: {p}" for p in stats.problems]
        if stats.checked is not None:
            wrong += stats.checked.wrong
            issued += stats.checked.verdicts
            replay += stats.checked.replay_failed
            reports += stats.checked.reports
    return problems, wrong, issued, replay, reports


def end_to_end(tally, setup_runs, peak_rss_mb):
    """End-to-end metrics plus the figures printed beside them, over the
    scaled latencies of the untraced issues of the complete rounds, so that
    every input weighs the same; ``setup_runs`` is a list of (scaled, wall)
    set-up times."""
    complete = sorted(scaled for s in tally.inputs.values()
                      for round_, _, scaled in s.issues
                      if round_ < tally.rounds)
    wall = [w for s in tally.inputs.values() for round_, w, _ in s.issues
            if round_ < tally.rounds]
    tail_s, tail_pct = tail(complete)
    metrics = {
        "ops_per_s": (len(complete) / sum(complete), "1/s"),
        "op_s.p50": (statistics.median(complete), "s"),
        "op_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(s for s, _ in setup_runs), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "samples": len(complete),
        "tail_percentile": round(tail_pct, 2),
        "wall_op_s.p50": statistics.median(wall),
        "wall_setup_s": statistics.median(w for _, w in setup_runs),
        "host_slowdown": tally.host_slowdown,
        "setup_runs_s": [[round(s, 4), round(w, 4)] for s, w in setup_runs],
    }
    return metrics, notes


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tally):
    """Per-layer metrics from each input's fastest traced issue, scaled like
    the end-to-end times, as means per request, plus the full layer table."""
    traced = [s for s in tally.inputs.values() if s.best_spans]
    totals = []
    for stats in traced:
        rows = tracing.layer_totals(stats.best_spans)
        for row in rows.values():
            row["s"] *= stats.best_scale
            row["self_s"] *= stats.best_scale
        totals.append(rows)
    layers = sorted({name for t in totals for name in t})
    table = {name: {field_: _mean(t.get(name, {}).get(field_, 0) for t in totals)
                    for field_ in ("calls", "s", "self_s", "points")}
             for name in layers}

    def get(layer, field_):
        return table.get(layer, {}).get(field_, 0.0)

    deriv_points = sum(t.get("bounds.deriv_rows", {}).get("points", 0)
                       for t in totals)
    useful = sum(tracing.useful_deriv_points(s.best_spans) for s in traced)
    paired = [s for s in traced if s.issues]
    overhead = (sum(statistics.median(s.traced_s) for s in paired)
                / sum(statistics.median(s for _, _, s in s.issues)
                      for s in paired) - 1.0)
    _, wrong, issued, replay, reports = quality(tally)
    metrics = {
        "expectation.probe.s": (get("expectation.probe", "s"), "s"),
        "expectation.probe.calls": (get("expectation.probe", "calls"), "count"),
        "bounds.check_class.s": (get("bounds.check_class", "s"), "s"),
        "distributions.moment_finiteness.s":
            (get("distributions.moment_finiteness", "s"), "s"),
        "linalg.eigen.s": (get("linalg.eigen", "s"), "s"),
        "linalg.eigen.calls": (get("linalg.eigen", "calls"), "count"),
        "calculus.derivative.s": (get("calculus.derivative", "s"), "s"),
        "calculus.derivative.points":
            (get("calculus.derivative", "points"), "count"),
        "calculus.forward_difference.s":
            (get("calculus.forward_difference", "s"), "s"),
        "calculus.rising_q.s": (get("calculus.rising_q", "s"), "s"),
        "expectation.grid.s": (get("expectation.grid", "s"), "s"),
        "expectation.grid.points": (get("expectation.grid", "points"), "count"),
        "bounds.bound_report.s": (get("bounds.bound_report", "s"), "s"),
        "bounds.bound_report.calls":
            (get("bounds.bound_report", "calls"), "count"),
        "bounds.bound_report.self_s":
            (get("bounds.bound_report", "self_s"), "s"),
        "bounds.deriv_points_per_grid_point":
            (deriv_points / useful if useful else 0.0, "ratio"),
        "expectation.sample.points":
            (get("expectation.sample", "points"), "count"),
        "cli.self_s": (get("cli.main", "self_s")
                       + get("cli.parse_dist", "self_s"), "s"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
        "wrong_verdict_ratio": (wrong / issued if issued else 0.0, "ratio"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "reports_not_replayable_ratio":
            (replay / reports if reports else 0.0, "ratio"),
    }
    return metrics, table
