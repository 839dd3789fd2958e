"""Approximate maximization of f - w, f (possibly non-monotone) submodular.

Each maximizer takes an oracle f and a weight list w of length n indexed
by ``j - 1``, as ``sfm.min_norm_point`` minimizes f - w:
a step compares f's change with one weight, so w is never summed over a set.
The ground set 1..n is f's own, ``f.ground``; a w of another length is
refused.  f is read through ``memoized`` by the memo's keyed reads, so a
step builds a set only where the memo misses.
Double greedy is the linear-time bi-directional pass of Buchbinder,
Feldman, Naor and Schwartz; its deterministic form guarantees a third of
the optimum and the randomized form half in expectation, for non-negative
functions.  A plain cardinality-constrained greedy and a single-swap local
search round out the toolbox.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import SetFunctionOracle, best_flip, memoized, whole

DG_MODES = ("deterministic", "randomized")


def _check_weights(w: list[float], f: SetFunctionOracle) -> None:
    if len(w) != f.ground.n:
        raise ValueError(f"weights must have length {f.ground.n}, got {len(w)}")


def double_greedy(f: SetFunctionOracle, w: list[float],
                  mode: str = "deterministic", seed: int | None = None) -> frozenset:
    """One bi-directional pass of f - w over the elements in index order.

    Grows a lower set A from empty and shrinks an upper set B from full; for
    each element j the add-gain f(A + j) - f(A) - w_j competes with the
    remove-gain f(B - j) - f(B) + w_j.  Deterministic mode takes the larger
    (ties add) and refuses a seed, which it would not read; randomized mode
    samples proportionally to the clipped gains, adding outright when both
    clip to zero.  f(A) and f(B) are carried from step to step, so f is
    read exactly 2n + 2 times.
    """
    if mode not in DG_MODES:
        raise ValueError(f"mode must be one of {DG_MODES}, got {mode!r}")
    if mode == "deterministic" and seed is not None:
        raise ValueError(f"deterministic double greedy draws nothing: seed must be None, "
                         f"got {seed!r}")
    _check_weights(w, f)
    rng = np.random.default_rng(seed) if mode == "randomized" else None
    f, ground = memoized(f), f.ground
    A: set[int] = set()
    B: set[int] = set(ground.elements())
    kA, kB = 0, (1 << ground.n) - 1  # the bitmasks of A and B
    fA, fB = f.at(kA, frozenset(A)), f.at(kB, frozenset(B))
    for j in ground.elements():
        fA_j, fB_j = f.flip(A, kA, j), f.flip(B, kB, j)
        a = fA_j - fA - w[j - 1]
        b = fB_j - fB + w[j - 1]
        if rng is None:
            take = a >= b
        else:
            ac, bc = max(a, 0.0), max(b, 0.0)
            take = True if ac + bc == 0.0 else rng.random() < ac / (ac + bc)
        if take:
            A.add(j)
            kA |= 1 << (j - 1)
            fA = fA_j
        else:
            B.remove(j)
            kB ^= 1 << (j - 1)
            fB = fB_j
    return frozenset(A)


def greedy_cardinality_max(f: SetFunctionOracle, w: list[float], k: int) -> frozenset:
    """Up to k greedy additions to f - w of the best strictly-positive-gain
    element; k is a whole number in 0..n."""
    _check_weights(w, f)
    k = whole(k, "k", 0)
    if k > f.ground.n:
        raise ValueError(f"k must lie in 0..{f.ground.n}, got {k}")
    f, S = memoized(f), frozenset()
    while len(S) < k and (T := best_flip(f, S, feasible=lambda T: len(T) > len(S),
                                         w=w, sign=-1.0)) is not None:
        S = T
    return S


def local_search_max(f: SetFunctionOracle, w: list[float], start,
                     feasible: Callable[[frozenset], bool] | None = None) -> frozenset:
    """Hill-climb on f - w by single adds/deletes until no move strictly improves it.

    With ``feasible`` given, only moves to sets it accepts are considered,
    and a start it rejects is a ``ValueError``.  Every step strictly raises
    f - w, so no set repeats and the climb ends.
    """
    _check_weights(w, f)
    f, S = memoized(f), f.ground.check_subset(start)
    if feasible is not None and not feasible(S):
        raise ValueError(f"start {sorted(S)} is not feasible")
    while (T := best_flip(f, S, feasible=feasible, w=w, sign=-1.0)) is not None:
        S = T
    return S
