"""Command-line interface tests: exit-code vocabulary, report files,
determinism, and config merging."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import varbounds
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

    @pytest.mark.parametrize("dist", ["normal", "poisson:lam=3"])
    def test_one_ladder_per_chain(self, dist, fns_path, ladder_builds):
        # the eight moment gates and the class checks share one ladder
        assert main(["chain", "--dist", dist, "--functions", fns_path,
                     "--n", "8", "--quiet"]) == 0
        assert len(ladder_builds) == 1

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

    def test_chain_evaluates_each_derivative_once_per_grid(self, tmp_path,
                                                           monkeypatch):
        from varbounds.calculus import SmoothFunction
        calls = []
        original = SmoothFunction.derivative_value

        def counted(self, k, x):
            calls.append((self.label, k))
            return original(self, k, x)

        monkeypatch.setattr(SmoothFunction, "derivative_value", counted)
        exprs = ("x^3", "exp(0.4*x)", "x*sin(2*x)")
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"functions": [{"expr": e}
                                                  for e in exprs]}))
        assert main(["chain", "--dist", "normal", "--functions", str(path),
                     "--n", "4", "--quiet"]) == 0
        # once each on the class ladder, the full grid and the half grid
        assert sorted(calls) == sorted((e, k) for e in exprs
                                       for k in range(1, 5) for _ in range(3))

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


class TestScipyImport:
    """The catalog densities and pmfs need no scipy: importing the package
    and running ``bounds`` leave it unloaded, and only a sampler's first
    draw loads it.  Each check runs in a fresh interpreter, since the test
    modules import scipy themselves."""

    def test_import_and_bounds_load_no_scipy(self, fns_path):
        out = run_fresh(*[["bounds", "--dist", dist, "--functions", fns_path,
                           "--n", "1,2", "--quiet"]
                          for dist in ("poisson:lam=3", "gamma:shape=2.5")])
        assert out == "[]\n0 []\n0 []\n"

    def test_mc_verify_loads_scipy_on_first_draw(self, fns_path, capsys,
                                                 tmp_path):
        argv = ["mc-verify", "--dist", "gamma:shape=2.5,scale=1.5",
                "--functions", fns_path, "--n", "2", "--mc-samples", "20000"]
        fresh = run_fresh(argv + ["--out-json", str(tmp_path / "fresh.json")])
        assert main(argv + ["--out-json", str(tmp_path / "here.json")]) == 0
        # the same report, bit for bit, as with scipy loaded up front
        assert fresh == "[]\n" + capsys.readouterr().out + "0 ['scipy']\n"
        assert ((tmp_path / "fresh.json").read_bytes()
                == (tmp_path / "here.json").read_bytes())


class TestDistParsing:
    def test_inline_params(self, fns_path):
        assert main(["bounds", "--dist", "binomial:n=10,theta=0.3",
                     "--functions", fns_path, "--n", "1", "--quiet"]) == 0

    def test_unknown_family(self, fns_path):
        assert main(["bounds", "--dist", "cauchy",
                     "--functions", fns_path, "--n", "1"]) == 1
