"""Self-tests for the benchmark: the metrics it emits, its output checks and
its statistics.  Run from the repository root with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from varbounds import bounds, calculus, cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def _short_tally(workload, trace, tmp_path, inputs=2):
    cases = workloads.build_cases(workload, 3)[:inputs]
    requests = workloads.Requests(cases, str(tmp_path))
    return measure.run_loop(cases, requests, 0.0, trace,
                            workloads.REFERENCE_KERNEL[workload])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(workloads.REFERENCE_KERNEL) == sorted(workloads.WORKLOADS)
    assert set(workloads.REFERENCE_KERNEL.values()) <= set(measure.REFERENCES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, tmp_path):
    # each input once untraced and once traced, so both metric sets exist
    tally = _short_tally(workload, True, tmp_path)
    for stats in tally.inputs.values():
        assert stats.issues and stats.best_spans
    e2e, _ = measure.end_to_end(tally, [(0.6, 0.7), (0.5, 0.6), (0.7, 0.9)],
                                100.0)
    layer, _ = measure.per_layer(tally)
    assert _emitted(e2e) == _declared("end_to_end")
    assert _emitted(layer) == _declared("per_layer")
    assert all(value > 0 for value, _ in e2e.values())


def test_run_prints_the_result_line_last(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "mc-crosscheck", "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        _declared("end_to_end")


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": ""})
    assert out.returncode != 0
    assert out.stdout == ""


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _report_doc(dist, exprs, n):
    g = calculus.load_function_tuple({"functions": [{"expr": e}
                                                    for e in exprs]})
    return bounds.bound_report(cli._parse_dist(dist), g, n).to_json_dict()


def test_check_accepts_a_sound_report():
    checked = workloads.check_report(_report_doc("normal", ("x", "x^2"), 1))
    assert checked.problems == () and checked.wrong == 0
    assert checked.verdicts == 2 and checked.signature == (True, True)


def test_check_flags_a_flipped_verdict():
    doc = _report_doc("normal", ("x", "x^2"), 1)
    doc["verdicts"]["poincare"]["pass"] = False
    assert workloads.check_report(doc).problems


def test_check_flags_a_verdict_that_is_not_its_matrix():
    doc = _report_doc("poisson:lam=2", ("x", "sin(x)"), 2)
    # still consistent with its own tolerance, but not A's eigenvalue
    doc["verdicts"]["bessel"]["min_eig"] += 1e-3
    assert workloads.check_report(doc).problems


def test_check_flags_a_bound_that_is_not_its_terms():
    doc = _report_doc("beta:a=2,b=3", ("x", "exp(0.5*x)"), 2)
    doc["S"][0][0] += 1e-3
    assert workloads.check_report(doc).problems


def test_known_false_fail_is_a_wrong_verdict_not_a_problem():
    # the fixed quadrature map misplaces gamma(40)'s mean: a false FAIL
    checked = workloads.check_report(
        _report_doc("gamma:shape=40", ("x", "x^2", "x^3"), 3))
    assert checked.problems == ()
    assert checked.wrong == 1


def test_class_refusal_of_a_member_in_the_class_is_a_wrong_verdict(tmp_path):
    # poisson(300) has every exponential moment, but its class probe
    # overflows and refuses the tuple
    case = workloads.Case("t/refused", "report", "poisson:lam=300",
                          ("x", "exp(0.35*x)", "sin(0.9*x)"), 1)
    requests = workloads.Requests([case], str(tmp_path))
    checked = requests.check(case, requests.issue(case))
    assert checked.problems == ()
    assert checked.wrong == checked.verdicts == 2


def _cli_request(tmp_path, kind, dist, exprs, n):
    case = workloads.Case(f"t/{kind}", kind, dist, exprs, n)
    requests = workloads.Requests([case], str(tmp_path))
    code = requests.issue(case)
    return case, requests, code


def test_check_chain_reads_back_its_report(tmp_path):
    case, requests, code = _cli_request(
        tmp_path, "chain", "poisson:lam=2", ("x", "x*sin(2*x)"), 2)
    checked = requests.check(case, code)
    assert checked.problems == () and checked.verdicts == 4
    assert checked.reports == 1
    assert checked.replay_failed == 1  # product terms do not load back
    assert requests.check(case, code).problems  # the files were consumed
    code = requests.issue(case)
    assert requests.check(case, cli.EXIT_VERDICT).problems
    requests.issue(case)
    path = requests._path(case, "out.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["runs"][1]["verdicts"]["bessel"]["pass"] = False
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert requests.check(case, code).problems


def test_check_mc_matches_exit_code(tmp_path):
    case, requests, code = _cli_request(
        tmp_path, "mc-verify", "normal", ("x", "x^2"), 1)
    assert requests.check(case, code).problems == ()
    assert requests.check(case, code).problems  # no report written since
    requests.issue(case)
    assert requests.check(case, cli.EXIT_VERDICT).problems


# ---------------------------------------------------------------------------
# statistics and spans
# ---------------------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    assert measure.tail(range(1, 22)) == (11, 100.0 * 11 / 21)
    assert measure.tail(range(1, 21)) == (20, 100.0)
    value, pct = measure.tail(range(100))
    assert value == 89 and pct == 90.0
    assert measure.tail([3, 1, 2]) == (3, 100.0)


def test_scale_is_nominal_over_measured_reference():
    nominal = measure.REFERENCES["arrays"][1]
    assert measure.scale("arrays", nominal, nominal) == pytest.approx(1.0)
    assert measure.scale("arrays", nominal, 3 * nominal) == pytest.approx(0.5)


def test_end_to_end_pools_the_issues_of_complete_rounds():
    tally = measure.Tally({"a": measure.InputStats(),
                           "b": measure.InputStats()}, rounds=2)
    # (round, wall s, scaled s); round 2 is the unfinished one
    tally.inputs["a"].issues = [(0, 2.0, 1.0), (1, 2.0, 1.0), (2, 9.0, 9.0)]
    tally.inputs["b"].issues = [(0, 6.0, 3.0), (1, 6.0, 3.0)]
    e2e, notes = measure.end_to_end(tally, [(0.5, 1.0)], 50.0)
    assert e2e["ops_per_s"][0] == pytest.approx(4 / 8.0)
    assert e2e["op_s.p50"][0] == pytest.approx(2.0)  # of 1, 1, 3, 3
    assert e2e["op_s.tail"][0] == pytest.approx(3.0)
    assert e2e["setup_s"][0] == 0.5 and notes["wall_setup_s"] == 1.0
    assert notes["wall_op_s.p50"] == pytest.approx(4.0)


def test_layer_totals_self_time_and_nesting():
    spans = [
        ["a", -1, 0, 100, 0, 0],
        ["b", 0, 10, 40, 5, 0],
        ["a", 1, 20, 30, 0, 0],  # a inside b inside a: counted once in s
        ["c", 0, 50, 60, 7, 0],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == pytest.approx(100e-9)
    assert totals["a"]["self_s"] == pytest.approx((100 - 30 - 10 + 10) * 1e-9)
    assert totals["b"]["self_s"] == pytest.approx(20e-9)
    assert totals["b"]["points"] == 5 and totals["c"]["points"] == 7


def test_tracer_restores_every_wrapped_name():
    before = {(id(o), n): vars(o)[n] for o, n, *_ in tracing._targets()}
    tracer = tracing.Tracer()
    with tracer.request() as spans:
        assert bounds.is_psd is not before[(id(bounds), "is_psd")]
        _report_doc("normal", ("x",), 1)
    assert {(id(o), n): vars(o)[n] for o, n, *_ in tracing._targets()} == before
    layers = {s[0] for s in spans}
    assert {"bounds.bound_report", "linalg.eigen", "expectation.probe",
            "distributions.moment_finiteness", "calculus.derivative",
            "cli.parse_dist"} <= layers


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build_cases(workload, 7) == \
            workloads.build_cases(workload, 7)
        assert workloads.build_cases(workload, 7) != \
            workloads.build_cases(workload, 8)
