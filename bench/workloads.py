"""Seeded inputs and operation lists for the benchmark's workloads.

A workload turns a seed into input documents (instance dicts and binary
feature matrices), builds dsmin oracles from them, and runs a fixed list
of solver calls.  Every oracle the solvers see is wrapped in a
:class:`Counter`, a bare integer counter around the evaluation callable,
so distinct f and g evaluations are counted from outside the package.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dsmin
import dsmin.featsel
from dsmin import (Constraint, CostModel, Dataset, DSInstance, SetFunctionOracle,
                   build_objective, greedy_select, instance_from_dict, memoized)

# Problem sizes.  One round of each workload takes 20-25 s on one core
# of a 2-vCPU x86 VM.  Many small instances per round keep the spread of
# the per-seed totals low; README.md gives the reasons for each size.
SFM_N = 20
SFM_PER_FAMILY = 90
MOD_N = 64
MOD_CAP = 6
SUP_N = 128
MOD_GROUPS = 14
FS_ROWS = 256
FS_FEATURES = 16
FS_DATASETS = 22
FS_LAMBDA = 0.01
FS_ALPHA = 1.0


class Counter:
    """Counts calls of one evaluation callable (f or g of one instance)."""

    __slots__ = ("fn", "label", "n")

    def __init__(self, fn: Callable[[frozenset], float], label: str):
        self.fn = fn
        self.label = label
        self.n = 0

    def __call__(self, S: frozenset) -> float:
        self.n += 1
        return self.fn(S)


# -- input generators -----------------------------------------------------------

def _sqrt_term(rng: np.random.Generator, n: int, coeff: float) -> dict:
    w = rng.uniform(0.5, 1.5, n).tolist()
    return {"kind": "scaled_sum", "terms": [{"coeff": coeff, "spec": {
        "kind": "concave_of_modular", "shape": "sqrt", "weights": w}}]}


def cut_document(rng: np.random.Generator, n: int) -> dict:
    """f = sparse graph cut + positive unary modular, g = 4 sqrt(n) sqrt(w . 1_X).

    Edges appear with probability 3/n and weigh U(0.1, 2).  The unary term
    is U(0, 7): with U(0, 4), sub-sup ends at V on about one instance in 30
    at n = 24, and with U(0, 6) on about one in 350 at n = 20.
    """
    edges = [[u, v, float(rng.uniform(0.1, 2.0))]
             for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 3.0 / n]
    unary = rng.uniform(0.0, 7.0, n).tolist()
    f = {"kind": "scaled_sum", "terms": [
        {"coeff": 1.0, "spec": {"kind": "graph_cut", "n": n, "edges": edges}},
        {"coeff": 1.0, "spec": {"kind": "modular", "weights": unary}}]}
    return {"n": n, "f": f, "g": _sqrt_term(rng, n, 4.0 * math.sqrt(n))}


def facility_document(rng: np.random.Generator, n: int) -> dict:
    """f = facility location over n sites and n customers, g = 0.8 sqrt(n) sqrt(w . 1_X).

    Each benefit is non-zero with probability 0.05 and then U(0, 1).
    """
    mask = rng.random((n, n)) < 0.05
    benefits = np.where(mask, rng.uniform(0.0, 1.0, (n, n)), 0.0)
    f = {"kind": "facility_location", "benefits": benefits.tolist()}
    return {"n": n, "f": f, "g": _sqrt_term(rng, n, 0.8 * math.sqrt(n))}


def synthetic_features(rng: np.random.Generator, rows: int,
                       features: int) -> tuple[np.ndarray, np.ndarray]:
    """Binary features for a binary class: a third noisy copies of the class,
    a third noisier copies of those (redundant), the rest unrelated noise.

    The noise levels are fixed; the seed only draws the samples.
    """
    y = rng.integers(0, 2, rows)
    k = features // 3
    X = np.empty((rows, features), dtype=np.int8)
    for j in range(features):
        if j < k:
            X[:, j] = y ^ (rng.random(rows) < 0.1 + 0.3 * j / max(k - 1, 1))
        elif j < 2 * k:
            X[:, j] = X[:, j - k] ^ (rng.random(rows) < 0.05 + 0.25 * (j - k) / max(k - 1, 1))
        else:
            X[:, j] = rng.random(rows) < 0.2 + 0.6 * (j - 2 * k) / max(features - 2 * k - 1, 1)
    return X, y


# -- operations -------------------------------------------------------------------

@dataclass
class Op:
    """One solver call on inputs built during set-up.

    ``solve`` runs the solver and returns its trace; ``calls`` reads the
    counters of the oracles it evaluates; ``value`` evaluates f - g without
    passing through those counters, for checks outside the timed region.
    """

    label: str
    solver: str                    # subsup | supsub | modmod | grnf
    n: int
    constraint: Constraint
    solve: Callable[[], dsmin.OptimizationTrace]
    calls: Callable[[], int]
    value: Callable[[frozenset], float]


def _counted(ground, f, g, wrap=lambda oracle: oracle) -> tuple[DSInstance, list[Counter]]:
    """A DS instance whose f and g evaluate through counters around ``f`` and ``g``."""
    counters = [Counter(f, "f"), Counter(g, "g")]
    return DSInstance(*(wrap(SetFunctionOracle(ground, c, c.label)) for c in counters)), counters


def _graph_ops(label: str, doc: dict, runs) -> list[Op]:
    """Ops for several solver runs sharing one instance document."""
    ground, f, g = instance_from_dict(doc)
    inst, counters = _counted(ground, f, g)
    ops = []
    for solver, constraint in runs:
        if solver == "subsup":
            solve = lambda inst=inst: dsmin.sub_sup(inst)
        elif solver == "supsub":
            solve = lambda inst=inst, c=constraint: dsmin.sup_sub(inst, constraint=c)
        else:
            solve = lambda inst=inst, c=constraint: dsmin.mod_mod(inst, constraint=c)
        tag = solver if constraint.kind == "none" else f"{solver}_card{constraint.k}"
        ops.append(Op(f"{tag}/{label}", solver, doc["n"], constraint, solve,
                      lambda cs=counters: cs[0].n + cs[1].n,
                      lambda S, f=f, g=g: f(S) - g(S)))
    return ops


@contextlib.contextmanager
def _counting_build_objective(counters: list[Counter]):
    """Make ``greedy_select`` build its objective over counted oracles."""
    original = dsmin.featsel.build_objective

    def counted(*args, **kwargs):
        obj = original(*args, **kwargs)
        obj.instance, counters[:] = _counted(obj.instance.ground, obj.instance.f,
                                             obj.instance.g, memoized)
        return obj

    dsmin.featsel.build_objective = counted
    try:
        yield
    finally:
        dsmin.featsel.build_objective = original


def _featsel_ops(label: str, X: np.ndarray, y: np.ndarray) -> list[Op]:
    cost = CostModel.modular_cardinality(FS_LAMBDA)
    reference = build_objective(Dataset(X, y), cost, FS_ALPHA)
    value = reference.value
    n = X.shape[1]
    ops = []

    greedy_counters: list[Counter] = []
    greedy_data = Dataset(X, y)

    def greedy():
        with _counting_build_objective(greedy_counters):
            _, trace = greedy_select(greedy_data, cost, "GrNF", alpha=FS_ALPHA)
        return trace

    ops.append(Op(f"grnf/{label}", "grnf", n, Constraint.none(), greedy,
                  lambda: sum(c.n for c in greedy_counters), value))
    for solver, fn in (("supsub", dsmin.sup_sub), ("modmod", dsmin.mod_mod)):
        obj = build_objective(Dataset(X, y), cost, FS_ALPHA)
        inst, counters = _counted(obj.instance.ground, obj.instance.f, obj.instance.g)
        ops.append(Op(f"{solver}/{label}", solver, n, Constraint.none(),
                      lambda fn=fn, inst=inst: fn(inst),
                      lambda cs=counters: cs[0].n + cs[1].n, value))
    return ops


# -- workloads ----------------------------------------------------------------------
# Each workload maps a seed to its list of ops: it generates the input
# documents and builds the oracles, everything up to the first solver call.

def sfm_small(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(2 * SFM_PER_FAMILY):
        family, doc = (("cut", cut_document(rng, SFM_N)) if i % 2 == 0 else
                       ("facility", facility_document(rng, SFM_N)))
        ops += _graph_ops(f"{family}{i}", doc, [("subsup", Constraint.none())])
    return ops


def modular_large(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    free, cap = Constraint.none(), Constraint.cardinality_le(MOD_CAP)
    ops = []
    for g in range(MOD_GROUPS):
        for j, (family, make, n, runs) in enumerate((
                ("cut", cut_document, MOD_N, [("modmod", free), ("modmod", cap)]),
                ("facility", facility_document, MOD_N, [("modmod", free), ("modmod", cap)]),
                ("cut", cut_document, SUP_N, [("supsub", free)]),
                ("facility", facility_document, SUP_N, [("supsub", free)]))):
            ops += _graph_ops(f"{family}{4 * g + j}", make(rng, n), runs)
    return ops


def featsel_synth(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for i in range(FS_DATASETS):
        ops += _featsel_ops(f"data{i}", *synthetic_features(rng, FS_ROWS, FS_FEATURES))
    return ops


WORKLOADS = {"sfm_small": sfm_small, "modular_large": modular_large,
             "featsel_synth": featsel_synth}
