"""Approximate maximization of (possibly non-monotone) submodular functions.

Double greedy is the linear-time bi-directional pass of Buchbinder, Feldman,
Naor and Schwartz; its deterministic form guarantees a third of the optimum
and the randomized form half in expectation, for non-negative functions.
A plain cardinality-constrained greedy and a single-swap local search round
out the toolbox.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import GroundSet, best_flip

DG_MODES = ("deterministic", "randomized")


def double_greedy(f: Callable[[frozenset], float], ground: GroundSet,
                  mode: str = "deterministic", seed: int | None = None) -> frozenset:
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
    A: set[int] = set()
    B: set[int] = set(ground.elements())
    for j in ground.elements():
        a = f(frozenset(A | {j})) - f(frozenset(A))
        b = f(frozenset(B - {j})) - f(frozenset(B))
        if rng is None:
            take = a >= b
        else:
            ac, bc = max(a, 0.0), max(b, 0.0)
            take = True if ac + bc == 0.0 else rng.random() < ac / (ac + bc)
        if take:
            A.add(j)
        else:
            B.remove(j)
    return frozenset(A)


def greedy_cardinality_max(f: Callable[[frozenset], float], ground: GroundSet, k: int) -> frozenset:
    """Up to k greedy additions of the best strictly-positive-gain element."""
    n = ground.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    S = frozenset()
    while len(S) < k and (T := best_flip(lambda X: -f(X), S, ground,
                                         feasible=lambda T: len(T) > len(S))) is not None:
        S = T
    return S


def local_search_max(f: Callable[[frozenset], float], start, ground: GroundSet,
                     feasible: Callable[[frozenset], bool] | None = None) -> frozenset:
    """Hill-climb by single adds/deletes until no move strictly improves f.

    With ``feasible`` given, only moves to sets it accepts are considered.
    Every step strictly raises f, so no set repeats and the climb ends.
    """
    S = ground.check_subset(start)
    while (T := best_flip(lambda X: -f(X), S, ground, feasible=feasible)) is not None:
        S = T
    return S
