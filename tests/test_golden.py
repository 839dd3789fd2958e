"""Golden traces: seeded solver runs must reproduce a recording bit for bit.

Each case runs one solver on a small seeded instance and keeps its final
set, the ``repr`` of its final value, its distinct oracle calls, its
termination and the ``repr`` of every accepted iterate's value.  A change
meant to leave results unchanged (a faster sum, a reused bound) must leave
all of them equal to ``golden_traces.json``.

Re-record only when a change is meant to alter results:
``PYTHONPATH=src python tests/test_golden.py``.  It prints each case and
field whose stored value changes (old -> new) before it writes the file.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dsmin import (Constraint, CostModel, Dataset, DSInstance, SolverOptions,
                   build_objective, greedy_select, instance_from_dict, mod_mod, sub_sup,
                   sup_sub)

GOLDEN = Path(__file__).resolve().parent / "golden_traces.json"
N = 16


def _sqrt_g(rng, n, coeff):
    return {"kind": "scaled_sum", "terms": [{"coeff": coeff, "spec": {
        "kind": "concave_of_modular", "shape": "sqrt",
        "weights": rng.uniform(0.5, 1.5, n).tolist()}}]}


def _cut(seed):
    """Sparse graph cut plus a positive unary term, minus a weighted sqrt."""
    rng = np.random.default_rng([seed, 11])
    edges = [[u, v, float(rng.uniform(0.1, 2.0))]
             for u in range(1, N + 1) for v in range(u + 1, N + 1)
             if rng.random() < 3.0 / N]
    f = {"kind": "scaled_sum", "terms": [
        {"coeff": 1.0, "spec": {"kind": "graph_cut", "n": N, "edges": edges}},
        {"coeff": 1.0, "spec": {"kind": "modular",
                                "weights": rng.uniform(0.0, 7.0, N).tolist()}}]}
    return {"n": N, "f": f, "g": _sqrt_g(rng, N, 4.0 * math.sqrt(N))}


def _facility(seed):
    """Sparse facility location minus a weighted sqrt."""
    rng = np.random.default_rng([seed, 12])
    B = np.where(rng.random((N, N)) < 0.15, rng.uniform(0.0, 1.0, (N, N)), 0.0)
    f = {"kind": "facility_location", "benefits": B.tolist()}
    return {"n": N, "f": f, "g": _sqrt_g(rng, N, 0.8 * math.sqrt(N))}


def _featsel_data():
    """64 rows of 8 binary features: noisy and redundant class copies, and a cost."""
    rng = np.random.default_rng(13)
    y = rng.integers(0, 2, 64)
    X = np.empty((64, 8), dtype=np.int8)
    for j in range(8):
        src = y if j < 3 else X[:, j - 3] if j < 6 else np.zeros(64, dtype=np.int8)
        X[:, j] = src ^ (rng.random(64) < 0.1 + 0.08 * j)
    return Dataset(X.astype(np.int8), y), CostModel.modular_cardinality(0.01)


def _featsel():
    """The MI objective on ``_featsel_data``."""
    return build_objective(*_featsel_data(), 1.0).instance


def _wide_data():
    """64 int8 rows of 24 features valued 0..4, six of them noisy class copies,
    and a cost.

    Three bits a feature make 72, too wide for one int64 of packed row
    codes, so every entropy query takes the per-query code path, on int8
    rows as ``parse_sparse_dataset`` gives them.
    """
    rng = np.random.default_rng(19)
    y = rng.integers(0, 2, 64)
    X = rng.integers(0, 5, (64, 24))
    for j in range(6):
        X[:, j] = np.where(rng.random(64) < 0.2 + 0.1 * j, X[:, j], 4 * y)
    return Dataset(X.astype(np.int8), y), CostModel.modular_cardinality(0.01)


def _wide():
    """The MI objective on ``_wide_data``."""
    return build_objective(*_wide_data(), 1.0).instance


def _graph(doc):
    return lambda: DSInstance(*instance_from_dict(doc)[1:])


CAP = Constraint.cardinality_le(4)
PARTITION = Constraint.partition_matroid([range(1, 5), range(5, 9), range(9, 13),
                                          range(13, 17)], [2, 1, 2, 1])
KNAPSACK = Constraint.knapsack([1, 3, 2, 5, 4, 1, 2, 3, 5, 1, 4, 2, 3, 1, 2, 4], 9)
# ground element i is an edge of the 8-cycle (i <= 8) or a chord two steps long
TREE = Constraint.spanning_tree(8, [(i, i % 8 + 1) for i in range(1, 9)]
                                + [(i, (i + 1) % 8 + 1) for i in range(1, 9)])
INSTANCES = {"cut0": _graph(_cut(0)), "cut1": _graph(_cut(1)),
             "fac0": _graph(_facility(0)), "fac1": _graph(_facility(1)),
             "featsel": _featsel, "featsel_data": _featsel_data,
             "wide": _wide, "wide_data": _wide_data}
RUNS = {
    "subsup": lambda i: sub_sup(i),
    "subsup_random": lambda i: sub_sup(i, SolverOptions(heuristic="random", seed=3)),
    "supsub": lambda i: sup_sub(i),
    "supsub_cap": lambda i: sup_sub(i, constraint=CAP),
    "supsub_randomized": lambda i: sup_sub(i, SolverOptions(dg_mode="randomized", seed=5)),
    "supsub_alternate": lambda i: sup_sub(i, SolverOptions(ub_strategy="alternate")),
    "modmod": lambda i: mod_mod(i),
    "modmod_cap": lambda i: mod_mod(i, constraint=CAP),
    "modmod_alternate": lambda i: mod_mod(i, SolverOptions(ub_strategy="alternate",
                                                           heuristic="v_gain")),
    "modmod_eq": lambda i: mod_mod(i, constraint=Constraint.cardinality_eq(3)),
    "modmod_partition": lambda i: mod_mod(i, constraint=PARTITION),
    "modmod_knapsack": lambda i: mod_mod(i, constraint=KNAPSACK),
    "modmod_tree": lambda i: mod_mod(i, constraint=TREE),
    "supsub_eps": lambda i: sup_sub(i, SolverOptions(epsilon=0.05)),
}
GREEDY = {"grnf": lambda d: greedy_select(*d, "grnf")[1],
          "grf": lambda d: greedy_select(*d, "grf")[1],
          "grnf_budget": lambda d: greedy_select(*d, "grnf", budget=2)[1]}
CASES = ([f"{run}/{name}" for name in ("cut0", "cut1", "fac0", "fac1") for run in RUNS]
         + [f"{run}/featsel" for run in ("subsup", "supsub", "supsub_randomized", "modmod",
                                         "modmod_cap")]
         + [f"{run}/featsel_data" for run in GREEDY]
         + ["modmod/wide", "grnf/wide_data"])


def record(case):
    run, name = case.split("/")
    trace = {**RUNS, **GREEDY}[run](INSTANCES[name]())
    return {"final_set": sorted(trace.final_set), "final_value": repr(trace.final_value),
            "oracle_calls": trace.oracle_calls, "termination": trace.termination,
            "locally_optimal": trace.locally_optimal,
            "iterates": [repr(p.value) for p in trace.iterates]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_reproduces_recording(case, golden):
    assert record(case) == golden[case]


def test_every_case_recorded(golden):
    assert sorted(golden) == sorted(CASES)


def test_wide_data_takes_the_per_query_codes():
    assert _wide_data()[0]._packing is None and _featsel_data()[0]._packing is not None


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {c: record(c) for c in CASES}
    for case in sorted(old.keys() | new.keys()):
        before, after = old.get(case, {}), new.get(case, {})
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                print(f"{case} {key}: {before.get(key)!r} -> {after.get(key)!r}")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
