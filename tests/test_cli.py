"""Command-line interface tests: exit-code vocabulary, report files,
determinism, and config merging."""

import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import varbounds
from varbounds import (bound_report, catalog, expectation, infer_quadratic,
                       load_function_tuple, verify_membership)
from varbounds.cli import main

pytestmark = pytest.mark.usefixtures("tmp_path")


@pytest.fixture()
def fns_path(tmp_path):
    path = tmp_path / "fns.json"
    path.write_text(json.dumps(
        {"functions": [{"expr": "x"}, {"poly": [0, 0, 1]}]}))
    return str(path)


@pytest.fixture()
def beta_table_path(tmp_path):
    xs = np.linspace(1e-7, 1 - 1e-7, 60001)
    fs = 12.0 * xs * (1 - xs) ** 2
    doc = {"custom": {"kind": "continuous", "mean": 0.4, "quadratic": None,
                      "support": [0, 1],
                      "density_table": [[float(x), float(f)]
                                        for x, f in zip(xs, fs)]}}
    path = tmp_path / "beta_table.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def beta_table_with_q_path(tmp_path, beta_table_path):
    doc = json.loads(open(beta_table_path).read())
    doc["custom"]["quadratic"] = [-0.2, 0.2, 0.0]
    path = tmp_path / "beta_table_q.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def delta_one_path(tmp_path):
    # bounded-support member with delta = 1: every moment exists, but the
    # order-2 coefficient hits the zero factor (1 - delta)
    xs = np.linspace(-0.99, 0.99, 2001)
    fs = np.exp(-xs**2)
    fs /= np.trapezoid(fs, xs)
    doc = {"custom": {"kind": "continuous", "mean": 0.0,
                      "quadratic": [1.0, 0.0, 1.0], "support": [-1, 1],
                      "density_table": [[float(x), float(f)]
                                        for x, f in zip(xs, fs)]}}
    path = tmp_path / "delta1.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestInferQ:
    def test_beta_table_passes(self, beta_table_path, capsys):
        code = main(["infer-q", "--dist", beta_table_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "delta=-0.2" in out and "beta=0.2" in out

    def test_corrupted_poisson_fails(self, tmp_path):
        # verify uses the shipped quadratic; corrupt gamma by +0.1
        import math
        pm = [[k, float(np.exp(-1.0) / math.factorial(k))]
              for k in range(40)]
        doc = {"custom": {"kind": "discrete", "mean": 1.0,
                          "quadratic": [0.0, 0.0, 1.1], "support": [0, 39],
                          "pmf_table": pm}}
        path = tmp_path / "poisson_bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--dist", str(path)]) == 2

    def test_missing_file(self):
        assert main(["infer-q", "--dist", "no_such_file.json"]) == 1

    def test_fewer_than_three_points_are_refused(self, capsys):
        # 10 nodes leave one identity point of gamma(40) above the floor:
        # verify refuses it as infer-q does, where it printed PASS
        for command in ("verify", "infer-q"):
            assert main([command, "--dist", "gamma:shape=40",
                         "--quad-nodes", "10"]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert "need at least 3 grid points" in out.err
        # the default 200 nodes give it 7
        assert main(["verify", "--dist", "gamma:shape=40"]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")
        assert verify_membership(catalog("gamma", {"shape": 40})).n_points == 7

    def test_engine_settings_reach_the_identity_grid(self, capsys):
        # --quad-nodes sets the nodes the mass quantiles are taken from:
        # 400 nodes give 33 distinct points where the default 200 give 30
        spec = catalog("gamma", {"shape": 3, "scale": 2})
        cfg = expectation.EngineConfig(quad_nodes=400)
        fit, report = infer_quadratic(spec, cfg), verify_membership(spec, cfg)
        assert fit.n_points != infer_quadratic(spec).n_points
        for command in ("infer-q", "verify"):
            assert main([command, "--dist", "gamma:shape=3,scale=2",
                         "--quad-nodes", "400"]) == 0
        out = capsys.readouterr().out
        assert f"points={fit.n_points}" in out
        assert f"max_residual={report.max_residual:.6e} " in out
        # below 200 nodes the grid is read as given too: 50 give 12 points
        assert main(["infer-q", "--dist", "gamma:shape=3,scale=2",
                     "--quad-nodes", "50"]) == 0
        assert "points=12" in capsys.readouterr().out


class TestUsageErrors:
    # the exit-code table gives usage errors 1; argparse's own 2 would read
    # as a membership residual failure
    @pytest.mark.parametrize("argv", [["bounds", "--bogus"],
                                      ["bounds", "--quad-nodes", "abc"],
                                      [], ["no-such-command"]])
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    # a command takes only the flags it reads: one it would ignore, and
    # so write no file for, is refused
    @pytest.mark.parametrize("command,flag,value", [
        *[(command, flag, value) for command in ("infer-q", "verify")
          for flag, value in (("--functions", "fns.json"), ("--n", "2"),
                              ("--theorems", "bessel"),
                              ("--out-json", "out.json"),
                              ("--out-csv", "out.csv"),
                              ("--on-class-failure", "drop"))],
        ("mc-verify", "--theorems", "bessel"),
        ("mc-verify", "--out-csv", "out.csv"), ("mc-verify", "--tol", "2")])
    def test_an_ignored_flag_exits_1(self, command, flag, value, fns_path,
                                     tmp_path, capsys):
        argv = [command, "--dist", "gamma:shape=3", "--quiet", flag,
                str(tmp_path / value) if value.startswith("out") else value]
        if command == "mc-verify":
            argv += ["--functions", fns_path, "--mc-samples", "2000"]
        assert main(argv) == 1
        assert "unrecognized arguments: " + flag in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["fns.json"]

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestBounds:
    def test_normal_pass_with_reports(self, fns_path, tmp_path, capsys):
        out_json = str(tmp_path / "report.json")
        out_csv = str(tmp_path / "eig.csv")
        code = main(["bounds", "--dist", "normal:mean=0,var=1",
                     "--functions", fns_path, "--n", "1",
                     "--out-json", out_json, "--out-csv", out_csv])
        assert code == 0
        text = capsys.readouterr().out
        assert "POINCARE n=1 PASS" in text
        assert "min-eig=" in text and "tol=" in text
        payload = json.loads(open(out_json).read())
        assert payload["engine"]["quad_nodes"] == 200
        assert payload["runs"][0]["verdicts"]["poincare"]["pass"]
        header = open(out_csv).readline().strip()
        assert header == "n,matrix,index,eigenvalue"

    def test_report_round_trip(self, fns_path, tmp_path):
        from varbounds import SymMatrix, is_psd
        out_json = str(tmp_path / "report.json")
        main(["bounds", "--dist", "normal", "--functions", fns_path,
              "--n", "1,2", "--out-json", out_json, "--quiet"])
        payload = json.loads(open(out_json).read())
        for run in payload["runs"]:
            a = SymMatrix.from_array(np.array(run["A"]))
            verdict = is_psd(a, run["verdicts"]["poincare"]["tol"])
            assert verdict.ok == run["verdicts"]["poincare"]["pass"]

    def test_singular_coefficient_exit(self, delta_one_path, fns_path):
        code = main(["bounds", "--dist", delta_one_path,
                     "--functions", fns_path, "--n", "2"])
        assert code == 3

    def test_class_failure_exit(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"functions": [{"expr": "exp(x)"}]}))
        code = main(["bounds", "--dist", "gamma:shape=2,scale=2",
                     "--functions", str(path), "--n", "1"])
        assert code == 4

    def test_verdict_failure_exit(self, tmp_path, fns_path):
        # a member whose declared quadratic undershoots the true one breaks
        # the first-order bound honestly: the tool must report, not mask
        import math
        pm = [[k, float(np.exp(-2.0) * 2.0**k / math.factorial(k))]
              for k in range(60)]
        doc = {"custom": {"kind": "discrete", "mean": 2.0,
                          "quadratic": [0.0, 0.0, 1.8], "support": [0, 59],
                          "pmf_table": pm}}
        path = tmp_path / "undershoot.json"
        path.write_text(json.dumps(doc))
        code = main(["bounds", "--dist", str(path), "--functions", fns_path,
                     "--n", "1", "--quiet"])
        assert code == 6

    def test_custom_member_report_loads_back(self, tmp_path, fns_path):
        # a tabulated member's report carries its table, so the report's
        # distribution is a valid input and reproduces the verdicts
        import math
        pm = [[k, float(np.exp(-2.0) * 2.0**k / math.factorial(k))]
              for k in range(60)]
        doc = {"custom": {"kind": "discrete", "mean": 2.0,
                          "quadratic": [0.0, 0.0, 2.0], "support": [0, 59],
                          "pmf_table": pm}}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        first = str(tmp_path / "r.json")
        assert main(["bounds", "--dist", str(path), "--functions", fns_path,
                     "--n", "1,2", "--out-json", first, "--quiet"]) == 0
        report = json.loads(open(first).read())
        assert report["distribution"]["custom"] == doc["custom"]
        back = tmp_path / "back.json"
        back.write_text(json.dumps(report["distribution"]))
        second = str(tmp_path / "r2.json")
        assert main(["bounds", "--dist", str(back), "--functions", fns_path,
                     "--n", "1,2", "--out-json", second, "--quiet"]) == 0
        replay = json.loads(open(second).read())
        assert replay["distribution"] == report["distribution"]
        assert [r["verdicts"] for r in replay["runs"]] == \
            [r["verdicts"] for r in report["runs"]]

    def test_bad_order_is_usage_error(self, fns_path):
        assert main(["bounds", "--dist", "normal", "--functions", fns_path,
                     "--n", "0"]) == 1
        assert main(["bounds", "--dist", "normal", "--functions", fns_path,
                     "--n", "1", "--theorems", "bogus"]) == 1

    def test_byte_identical_bounds_reports(self, fns_path, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = str(tmp_path / name)
            assert main(["bounds", "--dist", "poisson:lam=2", "--functions",
                         fns_path, "--n", "1,2", "--out-json", out,
                         "--quiet"]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]
        # one line of compact JSON with sorted keys
        doc = json.loads(outs[0])
        assert outs[0] == (json.dumps(doc, sort_keys=True) + "\n").encode()

    def test_config_document(self, tmp_path):
        cfg_doc = {
            "distribution": {"family": "poisson", "params": {"lam": 2}},
            "functions": {"functions": [{"poly": [0, 1]}]},
            "orders": [1],
            "theorems": ["poincare"],
            "engine": {"quad_nodes": 120},
            "output": {"json": str(tmp_path / "out.json")},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg_doc))
        assert main(["bounds", "--config", str(path), "--quiet"]) == 0
        payload = json.loads(open(tmp_path / "out.json").read())
        assert payload["engine"]["quad_nodes"] == 120
        assert payload["runs"][0]["L"] is None  # bessel not requested

    @pytest.mark.parametrize("engine,key", [
        ({"quad_nodez": 80}, "quad_nodez"),
        ({"quad_nodes": "80"}, "quad_nodes"),
        ({"trunc_tol": [1e-9]}, "trunc_tol"),
        ({"infinite_map": "rational"}, "infinite_map")])  # removed setting
    def test_bad_engine_setting_is_input_error(self, tmp_path, fns_path,
                                               capsys, engine, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"engine": engine}))
        assert main(["bounds", "--config", str(path), "--dist", "normal",
                     "--functions", fns_path, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and key in err


class TestChain:
    def test_normal_cubic_chain(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"functions": [{"poly": [0, 0, 0, 1]}]}))
        out_csv = str(tmp_path / "chain.csv")
        out_json = str(tmp_path / "chain.json")
        code = main(["chain", "--dist", "normal", "--functions", str(path),
                     "--n", "3", "--out-csv", out_csv,
                     "--out-json", out_json])
        assert code == 0
        rows = open(out_csv).read().strip().splitlines()
        assert rows[0] == "n,bound_type,min_eig"
        kinds = [r.split(",")[1] for r in rows[1:]]
        assert kinds == ["poincare_upper", "bessel_lower", "poincare_lower",
                         "bessel_lower", "poincare_upper", "bessel_lower"]
        # scalar chain 27 >= 15 >= 9 with equality at n = 3
        payload = json.loads(open(out_json).read())
        s_values = [run["S"][0][0] for run in payload["runs"]]
        np.testing.assert_allclose(s_values, [27.0, 9.0, 15.0], atol=1e-6)
        var = payload["runs"][0]["D"][0][0]
        assert var == pytest.approx(15.0, abs=1e-6)

    @pytest.mark.parametrize("dist,expr,ladders", [
        # the closed-form rule leaves a log factor, and twice a rate past
        # half the tail rate (here log 2), to the ladder
        ("beta:a=2,b=3", "log(x+1)", 1),
        ("negative-binomial:r=3,theta=0.5", "exp(0.3*x)", 1),
        # the rule settles these: no ladder
        ("normal", "x^2", 0), ("poisson:lam=3", "x^2", 0)])
    def test_one_ladder_per_chain(self, dist, expr, ladders, tmp_path,
                                  ladder_builds):
        # the eight moment gates and the class checks share one ladder,
        # which the member holds: a second chain on it builds none
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"functions": [{"expr": "x"}, {"expr": expr}]}))
        varbounds.clear_members()
        for _ in range(2):
            assert main(["chain", "--dist", dist, "--functions", str(path),
                         "--n", "8", "--quiet"]) == 0
            assert len(ladder_builds) == ladders

    def test_zero_order_usage_error(self, fns_path):
        assert main(["chain", "--dist", "normal", "--functions", fns_path,
                     "--n", "0"]) == 1

    def test_degree_one_tuple_all_zero(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"functions": [{"poly": [1, 2]}, {"poly": [0, -1]}]}))
        out_json = str(tmp_path / "c.json")
        code = main(["chain", "--dist", "normal", "--functions", str(path),
                     "--n", "1", "--out-json", out_json, "--quiet"])
        assert code == 0
        payload = json.loads(open(out_json).read())
        a = np.array(payload["runs"][0]["A"])
        assert np.max(np.abs(a)) < 1e-9

    @pytest.mark.parametrize("dist", ["normal:mean=0.2,var=1.1",
                                      "poisson:lam=3"])
    def test_report_inputs_load_back(self, dist, tmp_path):
        # a chain report's distribution and functions are valid inputs, and
        # running bounds on them reproduces the report's verdicts
        fns = tmp_path / "g.json"
        fns.write_text(json.dumps({"functions": [
            {"expr": "x"}, {"expr": "x*sin(2*x)"},
            {"expr": "x^2*exp(0.25*x)"}]}))
        chain_json = str(tmp_path / "chain.json")
        assert main(["chain", "--dist", dist, "--functions", str(fns),
                     "--n", "2", "--out-json", chain_json, "--quiet"]) == 0
        chain = json.loads(open(chain_json).read())
        dist_path = tmp_path / "dist.json"
        dist_path.write_text(json.dumps(chain["distribution"]))
        fns_back = tmp_path / "g_back.json"
        fns_back.write_text(json.dumps(chain["functions"]))
        out_json = str(tmp_path / "bounds.json")
        assert main(["bounds", "--dist", str(dist_path),
                     "--functions", str(fns_back), "--n", "1,2",
                     "--out-json", out_json, "--quiet"]) == 0
        replay = json.loads(open(out_json).read())
        assert replay["distribution"] == chain["distribution"]
        assert replay["functions"] == chain["functions"]
        assert [r["verdicts"] for r in replay["runs"]] == \
            [r["verdicts"] for r in chain["runs"]]


class TestOnePass:
    """``chain`` and ``bounds --n a,b,c`` run every order in one pass."""

    def test_chain_evaluates_each_derivative_once_per_grid(
            self, tmp_path, base_evaluations):
        exprs = ("x^3", "exp(0.4*x)", "x*sin(2*x)")
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"functions": [{"expr": e}
                                                  for e in exprs]}))
        assert main(["chain", "--dist", "normal", "--functions", str(path),
                     "--n", "4", "--quiet"]) == 0
        # the bases of orders 0-4, once each on the full grid and the half
        # grid; the closed-form rule settles the class checks, so there is
        # no ladder
        assert [orders for _, orders in base_evaluations] == \
            [tuple(range(5))] * 2
        assert len({x.size for x, _ in base_evaluations}) == 2

    @pytest.mark.parametrize("theorems", ["poincare,bessel", "poincare"])
    @pytest.mark.parametrize("dist,params,exprs,policy", [
        ("normal:mean=0.2,var=1.3", ("normal", {"mean": 0.2, "var": 1.3}),
         ("x^3", "exp(0.4*x)", "x*sin(2*x)"), "raise"),
        # log(x) leaves the Gram class of gamma(1.5) at k = 2
        ("gamma:shape=1.5", ("gamma", {"shape": 1.5}),
         ("x", "x^2", "log(x)"), "drop"),
    ])
    @pytest.mark.parametrize("command", ["chain", "bounds"])
    def test_runs_equal_separate_reports(self, tmp_path, command, dist,
                                         params, exprs, policy, theorems):
        from varbounds import bound_report, catalog, load_function_tuple
        doc = {"functions": [{"expr": e} for e in exprs]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out.json")
        orders = "4" if command == "chain" else "1,2,3,4"
        main([command, "--dist", dist, "--functions", str(path),
              "--n", orders, "--theorems", theorems, "--out-json", out,
              "--on-class-failure", policy, "--quiet"])
        runs = json.loads(open(out).read())["runs"]
        spec, g = catalog(*params), load_function_tuple(doc)
        alone = [bound_report(spec, g, n, theorems=theorems.split(","),
                              class_policy=policy).to_json_dict()
                 for n in (1, 2, 3, 4)]
        assert runs == json.loads(json.dumps(alone))
        assert [r["provenance"]["dropped_functions"] for r in runs] == \
            ([[], [2], [2], [2]] if policy == "drop" else [[]] * 4)

    def test_refusal_keeps_its_exit_code(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"functions": [{"expr": "x"},
                                                  {"expr": "log(x)"}]}))
        for command, orders in (("chain", "3"), ("bounds", "3,1,2")):
            assert main([command, "--dist", "gamma:shape=1.5", "--functions",
                         str(path), "--n", orders, "--quiet"]) == 4


class TestMcVerify:
    def test_poisson_within_slack(self, fns_path, capsys):
        code = main(["mc-verify", "--dist", "poisson:lam=2",
                     "--functions", fns_path, "--n", "1",
                     "--mc-samples", "50000"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_zero_half_width_entry_within_roundoff(self, tmp_path, capsys):
        # B2 on poisson is the constant (2 lam^2)^2 ~ 2000: its Monte Carlo
        # half-width is 0, and the summed entry differs from it by roundoff
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"functions": [
            {"expr": "x"}, {"expr": "x^2"}, {"expr": "sin(0.6237*x)"}]}))
        code = main(["mc-verify", "--dist", "poisson:lam=4.659",
                     "--functions", str(path), "--n", "2"])
        assert code == 0
        assert "EXCEEDS" not in capsys.readouterr().out

    def test_a_discrete_member_sums_its_support_once(self, fns_path, cfg):
        # the report and the sampler read the support the member holds
        varbounds.clear_members()
        with mock.patch.object(expectation, "truncated_support",
                               wraps=expectation.truncated_support) as summed:
            bound_report(catalog("poisson", {"lam": 2.5}),
                         load_function_tuple(fns_path), 1, cfg)
            assert main(["mc-verify", "--dist", "poisson:lam=2.5",
                         "--functions", fns_path, "--n", "1",
                         "--mc-samples", "50000", "--quiet"]) == 0
        assert summed.call_count == 1

    def test_dropped_function_is_not_sampled(self, tmp_path, capsys):
        # E[exp(1.2 X)] diverges for gamma(2, 1), so exp(0.6*x) is dropped
        # and the Monte Carlo side compares the 2 x 2 matrices of the rest
        fns, out = tmp_path / "g.json", tmp_path / "out.json"
        fns.write_text(json.dumps({"functions": [
            {"expr": "x"}, {"expr": "x^2"}, {"expr": "exp(0.6*x)"}]}))
        code = main(["mc-verify", "--dist", "gamma:shape=2,scale=1",
                     "--functions", str(fns), "--n", "1",
                     "--mc-samples", "50000", "--on-class-failure", "drop",
                     "--out-json", str(out)])
        assert code == 0
        assert "dropped functions [2]" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["dropped_functions"] == [2]
        assert [c["ok"] for c in doc["comparisons"]] == [True] * 3

    def test_byte_identical_reruns(self, fns_path, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (out1, out2):
            code = main(["mc-verify", "--dist", "normal",
                         "--functions", fns_path, "--n", "1",
                         "--mc-samples", "20000", "--mc-seed", "77",
                         "--out-json", out, "--quiet"])
            assert code == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_single_sample_is_input_error(self, fns_path, capsys):
        code = main(["mc-verify", "--dist", "normal", "--functions", fns_path,
                     "--n", "1", "--mc-samples", "1"])
        assert code == 1
        out = capsys.readouterr()
        assert "mc_samples" in out.err and "nan" not in out.out

    def test_no_sampler_exit(self, beta_table_with_q_path, fns_path):
        code = main(["mc-verify", "--dist", beta_table_with_q_path,
                     "--functions", fns_path, "--n", "1"])
        assert code == 5


# Prints the scipy modules loaded by importing varbounds, then the exit
# code of each CLI call in the JSON list sys.argv[1] and whether scipy is
# loaded after it.
_FRESH_CLI = """
import json, sys
import varbounds, varbounds.cli
def scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:1]
print(scipy())
for argv in json.loads(sys.argv[1]):
    print(varbounds.cli.main(argv), scipy())
"""


def run_fresh(*argvs):
    """``_FRESH_CLI`` in a fresh interpreter that imports this checkout's
    varbounds; returns its standard output."""
    src = os.path.dirname(os.path.dirname(varbounds.__file__))
    return subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True).stdout


# Runs the CLI calls in the JSON list sys.argv[1] where ``import scipy``
# fails, printing each exit code.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
import varbounds.cli
for argv in json.loads(sys.argv[1]):
    print(varbounds.cli.main(argv))
"""


class TestScipyImport:
    """The package runs on numpy alone: importing it and running every
    command leave scipy unloaded, and every command runs where scipy
    cannot be imported.  Each check runs in a fresh interpreter, since the
    test modules import scipy themselves."""

    def test_import_and_bounds_load_no_scipy(self, fns_path):
        out = run_fresh(*[["bounds", "--dist", dist, "--functions", fns_path,
                           "--n", "1,2", "--quiet"]
                          for dist in ("poisson:lam=3", "gamma:shape=2.5")])
        assert out == "[]\n0 []\n0 []\n"

    def test_every_command_runs_without_scipy(self, fns_path):
        argvs = []
        for dist in ("normal:mean=0.3,var=1.2", "gamma:shape=2.5,scale=1.5",
                     "beta:a=2,b=3", "poisson:lam=3"):
            given = ["--dist", dist]
            argvs += [["bounds", *given, "--functions", fns_path, "--n", "1,2",
                       "--quiet"],
                      ["chain", *given, "--functions", fns_path, "--n", "3",
                       "--quiet"],
                      ["verify", *given, "--quiet"],
                      ["infer-q", *given, "--quiet"],
                      ["mc-verify", *given, "--functions", fns_path, "--n", "2",
                       "--mc-samples", "20000", "--quiet"]]
        src = os.path.dirname(os.path.dirname(varbounds.__file__))
        out = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
            env=dict(os.environ, PYTHONPATH=src), check=True,
            capture_output=True, text=True).stdout
        assert out.splitlines() == ["0"] * len(argvs)


class TestRepeatedMain:
    def test_repeated_calls_match_a_fresh_interpreter(self, fns_path,
                                                       tmp_path):
        # main builds its parser once per process; a second call in the
        # process gives the exit codes and files of a fresh one
        def argvs(tag):
            out = str(tmp_path / tag)
            return [["chain", "--dist", "poisson:lam=3", "--functions",
                     fns_path, "--n", "3", "--quiet", "--out-json",
                     out + "-chain.json", "--out-csv", out + "-chain.csv"],
                    ["bounds", "--dist", "normal", "--functions", fns_path,
                     "--n", "1,2", "--quiet", "--out-json",
                     out + "-bounds.json"],
                    ["bounds", "--dist", "cauchy", "--functions", fns_path,
                     "--n", "1"]]

        fresh = [int(line.split()[0])
                 for line in run_fresh(*argvs("fresh")).splitlines()[1:]]
        assert fresh == [0, 0, 1]
        for tag in ("first", "second"):
            assert [main(argv) for argv in argvs(tag)] == fresh
            for name in ("chain.json", "chain.csv", "bounds.json"):
                assert ((tmp_path / f"{tag}-{name}").read_bytes()
                        == (tmp_path / f"fresh-{name}").read_bytes())


class TestRepeatedMcVerify:
    MEMBERS = ("normal:mean=0.3,var=1.2", "gamma:shape=2.5,scale=1.5",
               "beta:a=2,b=3", "poisson:lam=3",
               "negative-binomial:r=3,theta=0.5")

    def test_cached_stream_matches_a_fresh_interpreter(self, fns_path,
                                                       tmp_path, capsys):
        # the requests after the first of a (seed, samples) read the stream
        # and its forms that an earlier request drew and derived; in the
        # fresh interpreter the seeds alternate, so each request draws and
        # derives its own
        def argv(dist, seed, out):
            return ["mc-verify", "--dist", dist, "--functions", fns_path,
                    "--n", "2", "--mc-samples", "20000", "--mc-seed",
                    str(seed), "--out-json", str(tmp_path / out)]

        cases = [(dist, seed) for dist in self.MEMBERS for seed in (11, 12)]
        fresh = run_fresh(*[argv(dist, seed, f"fresh-{i}.json")
                            for i, (dist, seed) in enumerate(cases)])
        # each request's printed lines, then its exit code and scipy line
        outputs, lines = [], []
        for line in fresh.splitlines(keepends=True)[1:]:
            if line.endswith(" []\n"):
                outputs.append(("".join(lines), int(line.split()[0])))
                lines = []
            else:
                lines.append(line)
        assert len(outputs) == len(cases)
        for seed in (11, 12):
            for repeat in range(3):
                for i, (dist, case_seed) in enumerate(cases):
                    if case_seed != seed:
                        continue
                    code = main(argv(dist, seed, "here.json"))
                    assert (capsys.readouterr().out, code) == outputs[i]
                    assert ((tmp_path / "here.json").read_bytes()
                            == (tmp_path / f"fresh-{i}.json").read_bytes())


class TestDistParsing:
    def test_inline_params(self, fns_path):
        assert main(["bounds", "--dist", "binomial:n=10,theta=0.3",
                     "--functions", fns_path, "--n", "1", "--quiet"]) == 0

    def test_unknown_family(self, fns_path):
        assert main(["bounds", "--dist", "cauchy",
                     "--functions", fns_path, "--n", "1"]) == 1

    @pytest.mark.parametrize("dist", [
        "binomial:n=inf,theta=0.5", "hypergeometric:N=inf,K=3,n=2",
        "binomial:n=2.7,theta=0.5", "normal:mean=inf", "gamma:shape=inf",
        "normal:mu=3", "poisson:lam=2,lambda=5", "normal:mean=1,mean=2"])
    def test_parameter_error_exit(self, fns_path, capsys, dist):
        assert main(["bounds", "--dist", dist, "--functions", fns_path,
                     "--n", "1", "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("dist,message", [
        ("normal:mean=abc", "parameter 'mean' must be a number, got 'abc'"),
        ("poisson:lam", "parameter 'lam' must be a number, got ''"),
        ("poisson:lam=abc,foo=1", "unknown poisson parameter 'foo'")])
    def test_inline_values_are_read_by_the_catalog(self, fns_path, capsys,
                                                   dist, message):
        assert main(["bounds", "--dist", dist, "--functions", fns_path,
                     "--n", "1", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err

    @pytest.mark.parametrize("params", [{"mu": 3}, [3]])
    def test_unknown_params_in_a_document(self, tmp_path, fns_path, capsys,
                                          params):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps({"family": "normal", "params": params}))
        assert main(["bounds", "--dist", str(path), "--functions", fns_path,
                     "--n", "1", "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("flag,text", [
    ("--dist", '{"family": "normal", "params": {"mean": 1, "mean": 2}}'),
    ("--functions", '{"functions": [{"expr": "x", "expr": "x^2"}]}'),
    ("--config", '{"orders": [1], "orders": [2]}'),
    ("--config", '{"distribution": {"family": "normal", "params": '
                 '{"var": 1, "var": 2}}}'),
])
def test_repeated_key_is_input_error(tmp_path, fns_path, capsys, flag, text):
    # plain json would read the last value; every document reader refuses
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = {"--functions": fns_path, "--dist": "normal"}
    if flag == "--config":
        del argv["--dist"]
    argv[flag] = str(path)
    assert main(["bounds", "--n", "1", "--quiet"]
                + [a for item in argv.items() for a in item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "is repeated" in err


@pytest.mark.parametrize("flag,doc", [
    ("--functions", {"functions": ["expr"]}),
    ("--functions", {"functions": [{"expr": 5}]}),
    ("--functions", {"functions": [{"poly": [[1, 2]]}]}),
    ("--functions", {"functions": [{"poly": "12"}]}),
    ("--functions", {"functions": [{"poly": [1, True]}]}),
    ("--functions", {"functions": "x"}),
    ("--config", {"orders": 1}),
    ("--config", {"orders": [1.5]}),
    ("--config", {"engine": [1]}),
    ("--config", {"theorems": [["poincare"]]}),
    ("--config", {"output": {"json": 5}}),
    ("--config", []),
    ("--dist", {"family": "normal", "params": [3]}),
    ("--dist", {"family": ["normal"]}),
    ("--dist", [1]),
    ("--dist", {"custom": []}),
    ("--dist", {"custom": {"kind": "discrete", "mean": [0.3],
                           "support": [0, 1], "pmf_table": [[0, 1]]}}),
    ("--dist", {"custom": {"kind": "discrete", "mean": 0.3, "support": 1,
                           "pmf_table": [[0, 1]]}}),
    ("--dist", {"custom": {"kind": "discrete", "mean": 0.3,
                           "quadratic": [0, 1], "support": [0, 1],
                           "pmf_table": [[0, 1]]}}),
    ("--dist", {"custom": {"kind": "discrete", "mean": 0.5, "support": [0, 1],
                           "pmf_table": [[0, 0.5], [0, 0.5]]}}),
    ("--dist", {"custom": {"kind": "continuous", "mean": 0.5,
                           "support": [0, 1],
                           "density_table": [[0, 1], [0.5, math.nan],
                                             [1, 1]]}}),
], ids=lambda v: json.dumps(v) if not isinstance(v, str) else v)
def test_malformed_document_is_input_error(tmp_path, fns_path, capsys, flag,
                                           doc):
    # each document is read as one of its kind, checked for its shape, and
    # refused with an error message rather than a traceback or a misreading
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {"--functions": fns_path, "--dist": "normal"}
    argv[flag] = str(path)
    assert main(["bounds", "--n", "1", "--quiet"]
                + [a for item in argv.items() for a in item]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("input error:", "error:")), err
