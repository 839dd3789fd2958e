import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsmin import GroundSet, build_function, instance_from_dict
from dsmin.cli import FEATSEL_METHODS, main
from dsmin.featsel import naive_bayes_cv, parse_sparse_dataset
from dsmin.functions import modular_spec, sqrt_cardinality_spec

from helpers import graph_cut_spec, table_spec


@pytest.fixture
def instance(tmp_path):
    """The triangle cut minus 2 sqrt|X|; its minimum is -2 sqrt(3) at {1, 2, 3}."""
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({
        "n": 3,
        "f": graph_cut_spec(3, [[1, 2], [1, 3], [2, 3]]),
        "g": sqrt_cardinality_spec(3, coeff=2.0)}))
    return str(path)


@pytest.fixture
def dataset(tmp_path):
    """Eight rows: feature 1 copies the label, feature 2 is a noisy copy, 3 is noise."""
    path = tmp_path / "d.libsvm"
    path.write_text("1 1:1 2:1\n1 1:1 2:1 3:1\n1 1:1\n1 1:1 2:1\n"
                    "0 3:1\n0\n0 2:1\n0 3:1\n")
    return str(path)


_ZERO = {"kind": "modular", "weights": [0.0, 0.0]}

# instance documents with a malformed spec or size: each is a usage error, not a crash
MALFORMED_INSTANCES = [
    {"n": 2, "f": {"kind": "scaled_sum", "terms": [1]}, "g": _ZERO},
    {"n": 2, "f": {"kind": "graph_cut", "n": 2, "edges": [5]}, "g": _ZERO},
    {"n": 2, "f": {"kind": "modular", "weights": {"a": 1}}, "g": _ZERO},
    {"n": math.inf, "f": _ZERO, "g": _ZERO},
    {"n": 2, "f": {**_ZERO, "exponant": 0.3}, "g": _ZERO},
    {"n": 2, "f": {"kind": "scaled_sum", "terms": [{"coeff": 1.0, "spec": _ZERO, "w": 1}]},
     "g": _ZERO},
    # sizes and endpoints are whole numbers, never truncated or parsed from strings
    {"n": 2.5, "f": _ZERO, "g": _ZERO},
    {"n": "2", "f": _ZERO, "g": _ZERO},
    {"n": 2, "f": {"kind": "graph_cut", "n": 2.5, "edges": []}, "g": _ZERO},
    {"n": 2, "f": {"kind": "graph_cut", "n": 2, "edges": [[1.9, 2, 1.0]]}, "g": _ZERO},
    {"n": 2, "f": {"kind": "explicit_table", "n": 2.5, "values": [0, 1, 1, 1]}, "g": _ZERO},
]


@pytest.fixture(params=MALFORMED_INSTANCES)
def malformed_instance(tmp_path, request):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(request.param))
    return str(path)


def _lines(capsys) -> dict:
    out = capsys.readouterr().out
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


class TestOptimize:
    @pytest.mark.parametrize("algo", ["subsup", "supsub", "modmod"])
    def test_reaches_global_minimum(self, instance, capsys, algo):
        assert main(["optimize", "--instance", instance, "--algo", algo]) == 0
        report = _lines(capsys)
        assert report["algorithm"] == algo
        assert report["final set"] == "[1, 2, 3]"
        assert report["final value"] == "-3.464102"
        assert report["locally optimal"] == "true"

    def test_config_fills_in_and_flags_win(self, instance, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "supsub", "seed": 5, "max-iters": 1}))
        assert main(["optimize", "--instance", instance, "--config", str(cfg),
                     "--seed", "7"]) == 0
        report = _lines(capsys)
        assert (report["algorithm"], report["seed"], report["iterations"]) == ("supsub", "7", "1")

    def test_out_writes_json_and_csv(self, instance, tmp_path):
        out = str(tmp_path / "run")
        assert main(["optimize", "--instance", instance, "--out", out]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert set(doc) == {"algorithm", "seed", "epsilon", "termination",
                            "locally_optimal", "final", "iterates"}
        assert set(doc["final"]) == {"set", "value", "iterations", "oracle_calls"}
        assert doc["final"]["set"] == [1, 2, 3]
        rows = (tmp_path / "run.csv").read_text().splitlines()
        assert rows[0] == "iteration,value,oracle_calls,millis"
        assert len(rows) == len(doc["iterates"]) + 1

    def test_cardinality_constraint(self, instance, capsys):
        assert main(["optimize", "--instance", instance, "--constraint", "card_le=1"]) == 0
        assert _lines(capsys)["final set"] == "[]"

    @pytest.mark.parametrize("extra", [
        ["--inner-sfm", "brute"],                          # removed option
        ["--algo", "subsup", "--constraint", "card_le=1"],
        ["--constraint", "bogus"],
        ["--algo", "nope"],
        # a dict stands for a file holding it, named as @file after --constraint
        ["--config", {"inner_sfm": "brute", "bogus_key": 1}],
        ["--config", {"algo": "nope"}],
        ["--config", {"epsilon": "x"}],
        ["--config", "no-such-dir/cfg.json"],
        ["--constraint", {"kind": "cardinality_le", "k": math.inf}],  # also 1e400
        ["--constraint", {"kind": "cardinality_le", "k": 1.5}],
        ["--constraint", {"kind": "cardinality_le", "k": 2, "budget": 5}],
        ["--constraint", {"kind": "none", "k": 2}],
        # flags the algorithm never reads
        ["--algo", "subsup", "--ub-strategy", "alternate"],
        ["--algo", "subsup", "--dg-mode", "randomized"],
        ["--algo", "supsub", "--heuristic", "v_gain"],
        ["--algo", "modmod", "--dg-mode", "deterministic"],
    ])
    def test_usage_errors_exit_1(self, instance, tmp_path, capsys, extra):
        if isinstance(extra[-1], dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(extra[-1]))
            extra = extra[:-1] + [("@" if extra[0] == "--constraint" else "") + str(cfg)]
        assert main(["optimize", "--instance", instance] + extra) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_1(self, instance, capsys, epsilon):
        assert main(["optimize", "--instance", instance, "--epsilon", epsilon]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "epsilon must be finite and >= 0" in err

    def test_constraint_file_missing_key_exits_1(self, instance, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "cardinality_le"}))
        assert main(["optimize", "--instance", instance, "--constraint", f"@{path}"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("doc", [{"kind": "cardinality_le", "k": 2, "bogus": 1}, [1, 2]],
                             ids=["unknown-key", "not-an-object"])
    def test_malformed_constraint_file_exits_1_naming_it(self, instance, tmp_path, capsys, doc):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["optimize", "--instance", instance, "--constraint", f"@{path}"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: malformed constraint {path}: ")

    @pytest.mark.parametrize("doc", [
        {"kind": "cardinality_le", "k": "2"},
        {"kind": "cardinality_le", "k": True},
        {"kind": "partition_matroid", "blocks": [[1, 2], [3]], "quotas": [1.5, 1]},
        {"kind": "knapsack", "costs": [1, "1", 1], "budget": 2},
    ])
    def test_constraint_numbers_must_be_whole_exits_1(self, instance, tmp_path, capsys, doc):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["optimize", "--instance", instance, "--algo", "modmod",
                     "--constraint", f"@{path}"]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("card_le=2.5", "cardinality bound must be an integer, got 2.5"),
        ("card_eq=nan", "cardinality bound must be an integer, got nan"),
        ("card_le=x", "cannot parse constraint 'card_le=x'"),
        ("card_le", "cannot parse constraint 'card_le'")])
    def test_constraint_flag_bound_is_read_by_the_constraint(self, instance, capsys, text,
                                                             message):
        assert main(["optimize", "--instance", instance, "--constraint", text]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_infinite_constraint_bound_exits_1_naming_it(self, instance, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"kind": "cardinality_le", "k": 1e999}')
        assert main(["optimize", "--instance", instance, "--algo", "modmod",
                     "--constraint", f"@{path}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cardinality bound must be an integer, got inf")

    @pytest.mark.parametrize("algo,flags", [
        ("subsup", ["--heuristic", "random"]),
        ("supsub", ["--ub-strategy", "alternate", "--dg-mode", "randomized"]),
        ("modmod", ["--heuristic", "v_gain", "--ub-strategy", "alternate"]),
    ])
    def test_flags_the_algorithm_reads_are_accepted(self, instance, capsys, algo, flags):
        assert main(["optimize", "--instance", instance, "--algo", algo] + flags) == 0
        assert _lines(capsys)["final set"] == "[1, 2, 3]"

    def test_supsub_cap_refuses_randomized_dg_mode(self, instance, capsys):
        assert main(["optimize", "--instance", instance, "--algo", "supsub",
                     "--dg-mode", "randomized", "--constraint", "card_le=2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "dg_mode" in err

    def test_card_eq(self, instance, capsys):
        assert main(["optimize", "--instance", instance, "--constraint", "card_eq=2"]) == 0
        assert len(json.loads(_lines(capsys)["final set"])) == 2

    def test_config_that_is_not_an_object_exits_1(self, instance, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["--algo", "supsub"]))
        assert main(["optimize", "--instance", instance, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"

    def test_config_keys_and_nulls(self, instance, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 1, "ub-strategy": "alternate", "seed": None}))
        assert main(["optimize", "--instance", instance, "--config", str(cfg)]) == 0
        report = _lines(capsys)
        assert (report["seed"], report["iterations"]) == ("0", "1")

    def test_out_into_missing_directory_exits_2(self, instance, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "run")
        assert main(["optimize", "--instance", instance, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("runtime error: ")

    @pytest.mark.parametrize("args,status", [
        (["--help"], 0), (["optimize"], 0), (["optimize", "--bogus"], 1),
        (["optimize", "--out", "no-such-dir/run"], 2)])
    def test_the_module_entry_point_exits_with_mains_status(self, instance, tmp_path,
                                                            args, status):
        # what the shell sees from `python -m dsmin.cli`, not main()'s return value
        if args[0] == "optimize":
            args = [*args, "--instance", instance]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        done = subprocess.run([sys.executable, "-m", "dsmin.cli", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == status, done.stderr

    def test_oracle_calls_are_run_totals(self, instance, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["optimize", "--instance", instance, "--algo", "subsup", "--out", out]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert int(_lines(capsys)["oracle calls"]) == doc["final"]["oracle_calls"]
        assert doc["final"]["oracle_calls"] > doc["iterates"][-1]["oracle_calls"]

    def test_missing_instance_exits_1(self, tmp_path):
        assert main(["optimize", "--instance", str(tmp_path / "none.json")]) == 1

    def test_non_finite_spec_exits_1(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 2, "f": {"kind": "modular", "weights": [1.0, NaN]},'
                        ' "g": {"kind": "modular", "weights": [0.0, 0.0]}}')
        assert main(["optimize", "--instance", str(path)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_malformed_instance_exits_1(self, malformed_instance, capsys):
        assert main(["optimize", "--instance", malformed_instance]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load instance")

    def test_non_submodular_part_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "f": table_spec(2, [0, 1, 1, 3]),
                                    "g": table_spec(2, [0, 0, 0, 0])}))
        assert main(["optimize", "--instance", str(path)]) == 1


class TestCertify:
    def test_bounds_below_brute_force(self, instance, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        assert main(["certify", "--instance", instance, "--out", str(out)]) == 0
        report = _lines(capsys)
        assert report["brute-force minimum"] == "-3.464102 at [1, 2, 3]"
        assert float(report["bound2"]) <= float(report["bound1"]) <= -3.464102 + 1e-6
        assert out.read_text().splitlines()[0] == f"instance: {instance}"

    def test_missing_instance_exits_1(self, tmp_path):
        assert main(["certify", "--instance", str(tmp_path / "none.json")]) == 1

    def test_brute_force_is_skipped_past_20_elements(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 21, "f": graph_cut_spec(21, [[1, 21]]),
                                    "g": sqrt_cardinality_spec(21)}))
        assert main(["certify", "--instance", str(path)]) == 0
        report = _lines(capsys)
        assert report["n"] == "21" and report["brute-force minimum"] == "skipped (n > 20)"
        assert float(report["bound2"]) <= float(report["bound1"])

    def test_deterministic_report_has_no_seed(self, instance, capsys):
        assert main(["certify", "--instance", instance]) == 0
        assert "seed" not in _lines(capsys)
        assert main(["certify", "--instance", instance, "--seed", "0"]) == 1

    def test_malformed_instance_exits_1(self, malformed_instance, capsys):
        assert main(["certify", "--instance", malformed_instance]) == 1
        assert capsys.readouterr().err.startswith("error: cannot load instance")


def _rebuilds(pair: dict, v_spec: dict, sets) -> bool:
    """Whether the written f - g equals v on every given set."""
    _, f, g = instance_from_dict(pair)
    v = build_function(v_spec, GroundSet(pair["n"]))
    return all(f(S) - g(S) == pytest.approx(v(S), abs=1e-12) for S in sets)


class TestDecompose:
    def test_writes_submodular_pair(self, tmp_path, capsys):
        doc = tmp_path / "v.json"
        v_spec = table_spec(2, [0, 1, 1, 3])
        doc.write_text(json.dumps({"n": 2, "v": v_spec}))
        out = tmp_path / "fg.json"
        assert main(["decompose", "--instance", str(doc), "--out", str(out)]) == 0
        pair = json.loads(out.read_text())
        assert set(pair) == {"n", "f", "g", "alpha", "beta", "scale"}
        assert pair["alpha"] == pytest.approx(-1.0) and pair["scale"] > 0
        assert "scale: " in capsys.readouterr().out
        assert _rebuilds(pair, v_spec, [frozenset(), {1}, {2}, {1, 2}])

    def test_large_n_with_alpha_lb(self, tmp_path):
        # no full table of v is needed when alpha_lb is given
        n = 22
        v_spec = graph_cut_spec(n, [[j, j + 1, 1.0] for j in range(1, n)])
        doc = tmp_path / "v.json"
        doc.write_text(json.dumps({"n": n, "v": v_spec, "alpha_lb": -1.0}))
        out = tmp_path / "fg.json"
        assert main(["decompose", "--instance", str(doc), "--out", str(out)]) == 0
        rng = np.random.default_rng(0)
        sets = [frozenset(np.flatnonzero(rng.random(n) < 0.5) + 1) for _ in range(20)]
        assert _rebuilds(json.loads(out.read_text()), v_spec, sets)

    def test_writes_to_stdout_without_out(self, tmp_path, capsys):
        doc = tmp_path / "v.json"
        v_spec = table_spec(2, [0, 1, 1, 3])
        doc.write_text(json.dumps({"n": 2, "v": v_spec}))
        assert main(["decompose", "--instance", str(doc)]) == 0
        out = capsys.readouterr().out
        pair = json.loads(out[out.index("{"):])
        assert set(pair) == {"n", "f", "g", "alpha", "beta", "scale"}
        assert _rebuilds(pair, v_spec, [frozenset(), {1}, {2}, {1, 2}])

    def test_constants_without_value_are_json_null(self, tmp_path, capsys):
        # at n = 1 no pair of elements exists: alpha and beta have no value
        doc = tmp_path / "v.json"
        doc.write_text(json.dumps({"n": 1, "v": modular_spec([2.0])}))
        out = tmp_path / "fg.json"
        assert main(["decompose", "--instance", str(doc), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        pair = json.loads(out.read_text(), parse_constant=reject)
        assert (pair["alpha"], pair["beta"], pair["scale"]) == (None, None, 0.0)
        assert _rebuilds(pair, modular_spec([2.0]), [frozenset(), {1}])

    def test_one_element_under_a_negative_alpha_lb_pairs_v_with_zero(self, tmp_path, capsys):
        # the scale was |alpha_lb| / NaN, written as NaN into both specs
        doc = tmp_path / "v.json"
        doc.write_text(json.dumps({"n": 1, "v": modular_spec([1.0]), "alpha_lb": -1.0}))
        out = tmp_path / "fg.json"
        assert main(["decompose", "--instance", str(doc), "--out", str(out)]) == 0
        assert "scale: 0.000000" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        pair = json.loads(out.read_text(), parse_constant=reject)
        assert (pair["alpha"], pair["beta"], pair["scale"]) == (-1.0, None, 0.0)
        assert (pair["f"], pair["g"]) == (modular_spec([1.0]), modular_spec([0.0]))

    def test_bad_document_exits_1(self, tmp_path):
        doc = tmp_path / "v.json"
        doc.write_text(json.dumps({"n": 2}))
        assert main(["decompose", "--instance", str(doc)]) == 1

    @pytest.mark.parametrize("n", [2.5, "2"])
    def test_size_must_be_whole_exits_1(self, tmp_path, capsys, n):
        doc = tmp_path / "v.json"
        doc.write_text(json.dumps({"n": n, "v": table_spec(2, [0, 1, 1, 3])}))
        assert main(["decompose", "--instance", str(doc)]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("n,alpha_lb", [(3, "x"), (3, math.nan), (22, math.nan)])
    def test_bad_alpha_lb_exits_1(self, tmp_path, capsys, n, alpha_lb):
        v_spec = graph_cut_spec(n, [[j, j + 1, 1.0] for j in range(1, n)])
        doc = tmp_path / "v.json"
        doc.write_text(json.dumps({"n": n, "v": v_spec, "alpha_lb": alpha_lb}))
        assert main(["decompose", "--instance", str(doc)]) == 1
        assert capsys.readouterr().err.startswith("error: alpha_lb must be a finite real")


class TestFeatsel:
    def test_out_writes_json_and_csv(self, dataset, tmp_path, capsys):
        out = str(tmp_path / "fs")
        assert main(["featsel", "--data", dataset, "--folds", "2",
                     "--lambdas", "0.01,0.5", "--out", out]) == 0
        doc = json.loads((tmp_path / "fs.json").read_text())
        assert set(doc) == {"seed", "alpha", "folds", "results"}
        assert len(doc["results"]) == 2 * 5
        assert set(doc["results"][0]) == {"lambda", "method", "selected_features",
                                          "objective", "cost", "accuracy"}
        rows = (tmp_path / "fs.csv").read_text().splitlines()
        assert rows[0] == "lambda,method,n_selected,objective,cost,accuracy,selected"
        assert len(rows) == 1 + 2 * 5
        assert "seed: 0" in capsys.readouterr().out

    def test_budget_caps_every_method(self, dataset, tmp_path):
        out = str(tmp_path / "fs")
        assert main(["featsel", "--data", dataset, "--folds", "2", "--lambdas", "0",
                     "--methods", "grf,grnf,supsub,modmod", "--budget", "1",
                     "--out", out]) == 0
        results = json.loads((tmp_path / "fs.json").read_text())["results"]
        assert len(results) == 4
        assert all(len(r["selected_features"]) <= 1 for r in results)

    def test_rows_do_not_depend_on_the_other_runs(self, tmp_path):
        # each method and lambda run alone gives the row it gives among all of them
        rng = np.random.default_rng(97)
        y = rng.integers(0, 2, 64)
        on = np.where(y[:, None] == 1, [0.9, 0.8, 0.7, 0.6, 0.5, 0.5],
                      [0.1, 0.3, 0.3, 0.4, 0.5, 0.5])
        X = rng.random((64, 6)) < on
        data = tmp_path / "d.libsvm"
        data.write_text("".join(
            f"{label} " + " ".join(f"{j + 1}:1" for j in np.flatnonzero(row)) + "\n"
            for label, row in zip(y, X)))

        def rows(methods, lambdas):
            out = str(tmp_path / "fs")
            assert main(["featsel", "--data", str(data), "--folds", "3", "--methods", methods,
                         "--lambdas", lambdas, "--out", out]) == 0
            return json.loads((tmp_path / "fs.json").read_text())["results"]

        together = rows("all", "0.01,0.5")
        alone = [r for lam in ("0.01", "0.5") for m in FEATSEL_METHODS for r in rows(m, lam)]
        assert len(together) == 10
        assert sorted(alone, key=lambda r: (r["lambda"], r["method"])) == together

    def test_budget_with_subsup_exits_1(self, dataset, capsys):
        assert main(["featsel", "--data", dataset, "--budget", "1"]) == 1
        assert "subsup" in capsys.readouterr().err

    def test_config_epsilon_rejected(self, dataset, tmp_path, capsys):
        # featsel has no --epsilon flag, so a config cannot set it either
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.1}))
        assert main(["featsel", "--data", dataset, "--config", str(cfg)]) == 1
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--methods", "nope"], ["--lambdas", "x"],
                                       ["--cost", "partition_sqrt"]])  # no --blocks
    def test_usage_errors_exit_1(self, dataset, extra):
        assert main(["featsel", "--data", dataset] + extra) == 1

    @pytest.mark.parametrize("extra,message", [
        (["--folds", "1"], "folds must be >= 2"), (["--folds", "0"], "folds must be >= 2"),
        (["--budget", "-1", "--methods", "grnf"], "budget must be >= 0"),
        (["--seed", "-1", "--methods", "grf"], "seed must be >= 0"),
        (["--max-iters", "0", "--methods", "grf,modmod"], "max_iters must be >= 1")])
    def test_bad_folds_or_budget_exit_1_before_output(self, dataset, capsys, extra, message):
        assert main(["featsel", "--data", dataset] + extra) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("label", ["1.7", "inf"])
    def test_label_that_is_not_whole_exits_1(self, tmp_path, capsys, label):
        path = tmp_path / "d.libsvm"
        path.write_text(f"1 1:1\n0 2:1\n{label} 1:1\n")
        assert main(["featsel", "--data", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read dataset: {path}:3: bad label '{label}'")

    @pytest.mark.parametrize("lambdas", ["nan", "inf", "-1", "0.01,-0.5"])
    def test_bad_lambda_exits_1(self, dataset, capsys, lambdas):
        assert main(["featsel", "--data", dataset, f"--lambdas={lambdas}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cost trade-off lambda must be finite and >= 0")

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_smoothing_exits_1_before_output(self, dataset, capsys, alpha):
        assert main(["featsel", "--data", dataset, "--alpha", alpha]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: smoothing must be finite and >= 0")

    @pytest.mark.parametrize("alpha", ["-1", "-1e-300"])
    def test_negative_smoothing_exits_1_before_output(self, dataset, capsys, alpha):
        assert main(["featsel", "--data", dataset, f"--alpha={alpha}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: smoothing must be finite and >= 0")

    def test_non_finite_block_weight_exits_1(self, dataset, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text('{"blocks": [[1, 2], [3]], "weights": [1.0, NaN, 1.0]}')
        assert main(["featsel", "--data", dataset, "--cost", "partition_sqrt",
                     "--blocks", str(path)]) == 1
        assert capsys.readouterr().err == "error: cost weight must be finite and >= 0, got nan\n"

    @pytest.mark.parametrize("cost", [[], ["--cost", "modular"], ["--cost", "partition_sqrt"]])
    def test_blocks_go_with_partition_sqrt_and_only_with_it(self, dataset, tmp_path, capsys,
                                                             cost):
        # a blocks file that does not even cover the features was ignored
        # under the modular cost
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"blocks": [[1]]}))
        blocks = [] if cost[-1:] == ["partition_sqrt"] else ["--blocks", str(path)]
        assert main(["featsel", "--data", dataset, *cost, *blocks]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --blocks is given exactly when --cost is partition_sqrt\n"

    def test_blocks_file_without_blocks_exits_1(self, dataset, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"weights": [1.0, 1.0, 1.0]}))
        assert main(["featsel", "--data", dataset, "--cost", "partition_sqrt",
                     "--blocks", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("method", ["grnf", "modmod"])
    @pytest.mark.parametrize("weights", [[1.0], [1.0] * 4])
    def test_one_block_weight_per_feature(self, dataset, tmp_path, capsys, method, weights):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"blocks": [[1, 2], [3]], "weights": weights}))
        assert main(["featsel", "--data", dataset, "--cost", "partition_sqrt",
                     "--blocks", str(path), "--methods", method]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {len(weights)} cost weights for 3 features\n"

    def test_blocks_file_with_unknown_key_exits_1(self, dataset, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"blocks": [[1, 2], [3]], "wieghts": [1.0, 2.0, 1.0]}))
        assert main(["featsel", "--data", dataset, "--cost", "partition_sqrt",
                     "--blocks", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: malformed blocks")

    def test_an_empty_selection_is_scored_by_naive_bayes(self, tmp_path):
        # the prior alone: two folds train on a 1:1 tie (all labelled 0, 1 of 3
        # right) and on two 1s and one 0 (1 of 2 right); the whole-data
        # majority fraction that used to stand in for it is 3/5
        path = tmp_path / "d.libsvm"
        path.write_text("1 1:1\n1 2:1\n1\n0 1:1\n0 2:1\n")
        out = str(tmp_path / "fs")
        assert main(["featsel", "--data", str(path), "--folds", "2", "--lambdas", "50",
                     "--out", out]) == 0
        results = json.loads((tmp_path / "fs.json").read_text())["results"]
        prior = naive_bayes_cv(parse_sparse_dataset(str(path)), frozenset(), 2, 1.0, 0)
        assert prior == pytest.approx(5 / 12)
        assert len(results) == 5
        assert all(r["selected_features"] == [] and r["accuracy"] == prior for r in results)

    def test_label_only_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "labels.libsvm"
        path.write_text("1\n0\n1\n0\n")
        assert main(["featsel", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: cannot read dataset: dataset has no features: every row is empty\n"

    def test_missing_dataset_exits_1(self, tmp_path):
        assert main(["featsel", "--data", str(tmp_path / "none.libsvm")]) == 1
