"""Approximate maximization of (possibly non-monotone) submodular functions.

Double greedy is the linear-time bi-directional pass of Buchbinder, Feldman,
Naor and Schwartz; its deterministic form guarantees a third of the optimum
and the randomized form half in expectation, for non-negative functions.
A plain cardinality-constrained greedy and a single-swap local search round
out the toolbox.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SetFunctionOracle, flips

DG_MODES = ("deterministic", "randomized")


@dataclass
class MaximizerResult:
    set: frozenset
    value: float


def double_greedy(f: SetFunctionOracle, mode: str = "deterministic",
                  seed: int | None = None) -> MaximizerResult:
    """One bi-directional pass over the elements in index order.

    Grows a lower set from empty and shrinks an upper set from full; for
    each element the add-gain against the lower set competes with the
    remove-gain against the upper set.  Deterministic mode takes the larger
    (ties add); randomized mode samples proportionally to the clipped
    gains, adding outright when both clip to zero.  Makes exactly 4n
    oracle calls.
    """
    if mode not in DG_MODES:
        raise ValueError(f"mode must be one of {DG_MODES}, got {mode!r}")
    rng = np.random.default_rng(seed) if mode == "randomized" else None
    ground = f.ground
    A: set[int] = set()
    B: set[int] = set(ground.elements())
    value = None
    for j in ground.elements():
        add_val = f(frozenset(A | {j}))
        a = add_val - f(frozenset(A))
        rem_val = f(frozenset(B - {j}))
        b = rem_val - f(frozenset(B))
        if rng is None:
            take = a >= b
        else:
            ac, bc = max(a, 0.0), max(b, 0.0)
            take = True if ac + bc == 0.0 else rng.random() < ac / (ac + bc)
        if take:
            A.add(j)
            value = add_val
        else:
            B.remove(j)
            value = rem_val
    return MaximizerResult(frozenset(A), value)


def greedy_cardinality_max(f: SetFunctionOracle, k: int) -> MaximizerResult:
    """Up to k greedy additions of the best strictly-positive-gain element."""
    n = f.ground.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    S: set[int] = set()
    value = f(frozenset())
    for _ in range(k):
        best_gain, best_j, best_val = 0.0, None, None
        for j in f.ground.elements():
            if j in S:
                continue
            cand = f(frozenset(S | {j}))
            g = cand - value
            if g > best_gain:
                best_gain, best_j, best_val = g, j, cand
        if best_j is None:
            break
        S.add(best_j)
        value = best_val
    return MaximizerResult(frozenset(S), value)


def local_search_max(f: SetFunctionOracle, start,
                     feasible: Callable[[frozenset], bool] | None = None) -> MaximizerResult:
    """Hill-climb by single adds/deletes until no move strictly improves f.

    With ``feasible`` given, only moves to sets it accepts are considered.
    Every step strictly raises f, so no set repeats and the climb ends.
    """
    S = f.ground.check_subset(start)
    value = f(S)
    while True:
        best_val, best_set = value, None
        for T in flips(S, f.ground):
            if feasible is not None and not feasible(T):
                continue
            val = f(T)
            if val > best_val:
                best_val, best_set = val, T
        if best_set is None:
            return MaximizerResult(S, value)
        S, value = best_set, best_val
