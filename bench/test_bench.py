"""Self-tests of the benchmark; run with ``python3 -m pytest bench -q``.

They shrink the workloads so that each test takes seconds, except where
they check the recorded references against the full default workloads.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Workloads cut down to a handful of small ops.

    Tests using it take seed 1000, which has no recorded references.  On it
    one mod-mod op of ``featsel_synth`` fails the local-optimality rule; see
    ``test_mod_mod_ends_locally_optimal_on_small_featsel``.
    """
    for name, value in (("SFM_N", 12), ("SFM_PER_FAMILY", 1), ("MOD_N", 24),
                        ("SUP_N", 30), ("MOD_CAP", 3), ("MOD_GROUPS", 1),
                        ("FS_ROWS", 200), ("FS_FEATURES", 8), ("FS_DATASETS", 1)):
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def _main(*argv) -> dict:
    """Run the benchmark in-process; only failed ops may be reported on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run.main(list(argv)) == 0
    assert all(line.startswith("bench: failed ") for line in err.getvalue().splitlines())
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] == (result["failed"] == 0) and result["attempted"] >= 1
    return result


def test_spec_names_units_and_bounds():
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == run.unit(m["name"]), m["name"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tiny, workload):
    out = _main("--workload", workload, "--seed", "1000", "--seconds", "0", "--trace", "0")
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(tiny, workload):
    out = _main("--workload", workload, "--seed", "1000", "--seconds", "0", "--trace", "1")
    assert sorted(out["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    sfm = m["sfm.min_norm_point.self_s"] + m["sfm.greedy_base_vertex.self_s"]
    if workload == "sfm_small":
        assert sfm > 0.0 and m["sfm.major_cycles"] > 0
    else:
        assert sfm == 0.0
    if workload == "featsel_synth":
        assert m["featsel.entropy.self_s"] > 0.0
    else:
        assert m["featsel.entropy.calls"] == 0
    if workload == "modular_large":
        assert m["bounds.lower.self_s"] > 0 and m["bounds.upper.self_s"] > 0
        assert m["sfmax.double_greedy.self_s"] > 0
        assert m["constraints.modular_minimize_constrained.calls"] > 0
    assert m["functions.f.evals"] + m["functions.g.evals"] > 0


def test_traced_round_reproduces_untraced_round_and_restores_wrappers(tiny):
    plain = run.run_round(run.setup(workloads.WORKLOADS["modular_large"], 1000, []))
    ops = run.setup(workloads.WORKLOADS["modular_large"], 1000, [])
    before = spans.current_attributes()
    tracer = spans.Tracer()
    with tracer:
        traced = run.run_round(ops, tracer)
    assert [run.outcome(r) for r in traced] == [run.outcome(r) for r in plain]
    assert spans.current_attributes() == before
    assert tracer.problems(set(run.ROOT_SPANS.values()), sum(r.wall for r in traced)) == []


def test_scaled_times_follow_the_local_probe_median():
    nominal = speed.PROBE_NOMINAL_S
    walls = [1.0, 2.0, 1.0, 3.0]
    assert speed.scaled(walls, [nominal] * 5) == pytest.approx(walls)
    assert speed.scaled(walls, [2 * nominal] * 5) == pytest.approx([0.5, 1.0, 0.5, 1.5])
    # one slow probe is outvoted by its neighbours
    assert speed.scaled(walls, [nominal, nominal, 9 * nominal, nominal, nominal]) == \
        pytest.approx(walls)
    assert speed.probe() > 0.0


def test_span_check_flags_a_layer_call_outside_a_solve():
    import dsmin
    ground = dsmin.GroundSet(3)
    g = dsmin.SetFunctionOracle(ground, lambda S: float(len(S)) ** 0.5)
    tracer = spans.Tracer()
    with tracer:
        dsmin.solvers.modular_lower_bound(g, frozenset({1}), dsmin.Permutation((1, 2, 3)))
    assert any("outside any solve" in p for p in tracer.problems({"solvers.subsup"}, 1.0))


def test_memo_lookups_count_the_outermost_memo_only():
    import dsmin
    ground = dsmin.GroundSet(3)
    inner = dsmin.memoized(dsmin.SetFunctionOracle(ground, lambda S: float(len(S))))
    outer = dsmin.memoized(dsmin.SetFunctionOracle(ground, inner))
    tracer = spans.Tracer()
    with tracer:
        for S in ({1}, {2}, {1}):
            outer(frozenset(S))
    assert (tracer.memo_lookups, tracer.memo_hits) == (3, 1)


def test_tracer_is_restored_when_an_op_raises(tiny):
    before = spans.current_attributes()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert spans.current_attributes() == before


@pytest.mark.xfail(reason="dsmin defect: mod-mod's boundary-permutation sweep does not "
                          "certify local optimality; on this instance it stops at {1} "
                          "although adding feature 3 lowers v", strict=False)
def test_mod_mod_ends_locally_optimal_on_small_featsel(tiny):
    ops = run.setup(workloads.WORKLOADS["featsel_synth"], 1000, [])
    results = run.run_round(ops)
    assert [run.check(op, r, None) for op, r in zip(ops, results)] == [None] * len(ops)


class _Trace:
    def __init__(self, values, sets, locally_optimal=True):
        from dsmin.solvers import TracePoint
        self.iterates = [TracePoint(frozenset(s), v, 0, 0.0) for v, s in zip(values, sets)]
        self.locally_optimal = locally_optimal

    def values(self):
        return [p.value for p in self.iterates]

    @property
    def final_set(self):
        return self.iterates[-1].set

    @property
    def final_value(self):
        return self.iterates[-1].value


def _op(constraint=None, solver="subsup"):
    from dsmin import Constraint
    return workloads.Op("x", solver, 3, constraint or Constraint.none(),
                        lambda: None, lambda: 0, lambda S: -float(len(S)))


def test_failure_rule():
    from dsmin import Constraint
    ok = _Trace([0.0, -1.0], [(), (1,)])
    assert run.check(_op(), run.Result("x", ok, 1, 0.1), None) is None
    assert run.check(_op(), run.Result("x", None, 0, 0.1, "ValueError: x"), None)
    up = _Trace([0.0, -2.0, -1.0], [(), (1, 2), (1,)])
    assert run.check(_op(), run.Result("x", up, 1, 0.1), None) == "trace increases"
    big = _Trace([0.0, -2.0], [(), (1, 2)])
    assert "infeasible" in run.check(_op(Constraint.cardinality_le(1)),
                                     run.Result("x", big, 1, 0.1), None)
    stuck = _Trace([0.0, -1.0], [(), (1,)], locally_optimal=False)
    assert "locally optimal" in run.check(_op(), run.Result("x", stuck, 1, 0.1), None)
    assert run.check(_op(solver="grnf"), run.Result("x", stuck, 1, 0.1), None) is None
    wrong = _Trace([0.0, -5.0], [(), (1,)])
    assert "does not match" in run.check(_op(), run.Result("x", wrong, 1, 0.1), None)
    assert "worse than reference" in run.check(_op(), run.Result("x", ok, 1, 0.1),
                                               {"value": -2.0})


def _references() -> dict:
    return json.loads(run.REFERENCES.read_text())


def test_references_cover_default_seeds_and_are_not_degenerate():
    refs = _references()
    assert sorted(refs) == sorted(workloads.WORKLOADS)
    for name, per_seed in refs.items():
        assert sorted(map(int, per_seed)) == list(range(10))
        for records in per_seed.values():
            for r in records:
                assert 0 < len(r["set"]) < r["n"], (name, r["label"])


def test_cardinality_cap_binds_on_reference_runs():
    for records in _references()["modular_large"].values():
        by_label = {r["label"]: r for r in records}
        for label, r in by_label.items():
            if label.startswith("modmod_card"):
                free = by_label["modmod/" + label.split("/", 1)[1]]
                assert len(r["set"]) == workloads.MOD_CAP < len(free["set"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_references_reproduce_at_this_commit(workload):
    ops = run.setup(workloads.WORKLOADS[workload], 0, [])[:3]
    results = run.run_round(ops)
    refs = run.load_references(workload, 0)
    for op, r in zip(ops, results):
        assert sorted(r.trace.final_set) == refs[op.label]["set"]
        assert r.trace.final_value == refs[op.label]["value"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sfm_small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
