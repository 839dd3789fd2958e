"""Tight modular bounds on submodular functions and derived constructions.

A submodular function admits a tight modular lower bound built from the
telescoped gains along any permutation chain through a set, and two tight
modular upper bounds anchored at a set.  On top of those this module
provides the total normalization into a monotone part plus a modular
shift, a constructive difference-of-submodular decomposition for arbitrary
set functions, and two polynomial-time lower bounds on the global minimum
of a difference of submodular functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (AffineModular, SetFunctionOracle, chain_gains, evaluate_table,
                   mask_of)


@dataclass(frozen=True)
class Permutation:
    """An ordering of 1..n with its chain of prefix sets."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"order must be a permutation of 1..{n}, got {self.order}")

    def prefix(self, i: int) -> frozenset:
        """The chain set holding the first i elements."""
        return frozenset(self.order[:i])

    def chain_contains(self, Y: Iterable[int]) -> bool:
        Y = frozenset(Y)
        return self.prefix(len(Y)) == Y


def modular_lower_bound(g: SetFunctionOracle, Y: Iterable[int],
                        sigma: Permutation) -> AffineModular:
    """Tight modular lower bound on g from the gains along sigma's chain.

    Requires sigma's chain to contain Y and g to be normalized (0 at the
    empty set).  The result has offset 0, matches g on every chain prefix
    (hence at Y), and lower-bounds g everywhere when g is submodular.
    """
    Y = g.ground.check_subset(Y)
    if not sigma.chain_contains(Y):
        raise ValueError(f"permutation chain {sigma.order} does not contain {sorted(Y)}")
    return AffineModular(0.0, chain_gains(g, sigma.order))


def modular_upper_bound(f: SetFunctionOracle, X: Iterable[int],
                        variant: int) -> AffineModular:
    """One of the two tight modular upper bounds on a submodular f at X.

    Variant 1 uses within-X gains relative to X and singleton gains from
    the empty set outside X; variant 2 uses gains relative to the full
    ground set inside X and gains in the context of X outside.  Both agree
    with f at X; variant 1 is additionally exact on all single deletions
    from X and variant 2 on all single additions to X.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    X = f.ground.check_subset(X)
    fX = f(X)
    # gains of j in X are taken against `inside`, of j outside X against `outside`
    inside, outside = (X, frozenset()) if variant == 1 else (f.ground.full, X)
    f_inside = fX if inside == X else f(inside)
    f_outside = fX if outside == X else f(outside)
    weights = np.empty(f.ground.n)
    offset = fX
    for j in f.ground.elements():
        if j in X:
            w = f_inside - f(inside - {j})
            offset -= w
        else:
            w = f(outside | {j}) - f_outside
        weights[j - 1] = w
    return AffineModular(offset, weights)


@dataclass
class NormalizedParts:
    """Split of one submodular f into a monotone part plus a modular shift.

    ``polymatroid(X) + shift(X) == f(X)``; the polymatroid part is
    normalized and monotone non-decreasing, the shift has offset 0 with
    weight ``f(j | V - j)`` on element j.
    """

    polymatroid: SetFunctionOracle
    shift: AffineModular


def totally_normalize(f: SetFunctionOracle) -> NormalizedParts:
    """Total normalization of a normalized submodular function."""
    ground = f.ground
    k = modular_upper_bound(f, ground.full, 2).weights

    def fprime(S, _f=f, _k=k):
        return _f(S) - sum(_k[j - 1] for j in S)

    part = SetFunctionOracle(ground, fprime, name=f.name + "_monotone")
    return NormalizedParts(part, AffineModular(0.0, k))


def sqrt_curvature(n: int) -> float:
    """Strict-submodularity margin of sqrt(|X|) on n elements.

    The smallest possible drop in the gain of one element between nested
    contexts, attained at the largest context: 2*sqrt(n-1) - sqrt(n) - sqrt(n-2).
    """
    if n < 2:
        raise ValueError("curvature defined for n >= 2")
    return 2.0 * math.sqrt(n - 1) - math.sqrt(n) - math.sqrt(n - 2)


@dataclass
class DSDecomposition:
    """A pair of submodular functions whose difference is a given v."""

    f: SetFunctionOracle
    g: SetFunctionOracle
    alpha: float
    beta: float
    scale: float


DECOMPOSE_MAX_N = 16


def _exhaustive_alpha(table: np.ndarray, n: int) -> float:
    """Smallest gain drop min over j, X strictly inside Y avoiding j.

    For each element the per-context gains are folded with a subset-minimum
    dynamic program, which searches all pairs X strictly contained in Y
    without enumerating them one by one.
    """
    if n < 2:
        return math.inf
    full = (1 << n) - 1
    alpha = math.inf
    masks = np.arange(1 << n, dtype=np.int64)
    for a in range(n):
        bit = 1 << a
        rest = masks[(masks & bit) == 0]
        gains = table[rest | bit] - table[rest]
        # m[Y] = min over X subset of Y (within the reduced lattice) of gains[X]
        reduced = np.full(1 << n, math.inf)
        reduced[rest] = gains
        m = reduced.copy()
        for b in range(n):
            if b == a:
                continue
            bb = 1 << b
            hi = masks[(masks & bb) != 0]
            m[hi] = np.minimum(m[hi], m[hi ^ bb])
        # strict subset minimum: best over Y minus one element
        strict = np.full(1 << n, math.inf)
        for b in range(n):
            if b == a:
                continue
            bb = 1 << b
            hi = masks[((masks & bb) != 0) & ((masks & bit) == 0)]
            strict[hi] = np.minimum(strict[hi], m[hi ^ bb])
        cand = strict[rest] - gains
        best = cand.min()
        if best < alpha:
            alpha = float(best)
    return alpha


def ds_decompose(v: SetFunctionOracle, alpha_lb: float | None = None) -> DSDecomposition:
    """Express an arbitrary set function as a difference of submodular parts.

    Measures how far v is from submodular (the most negative gain drop
    ``alpha`` over nested contexts), then adds enough of a strictly
    submodular sqrt-cardinality term to both sides: with ``scale =
    |alpha'| / beta`` the pair ``f = v + scale * sqrt|X|`` and ``g = scale
    * sqrt|X|`` are both submodular and reconstruct v exactly.

    Computing ``alpha`` exhaustively is exponential, so it is guarded to
    n <= 16; for larger ground sets a valid lower bound ``alpha_lb`` must
    be supplied.
    """
    ground = v.ground
    n = ground.n
    table = None
    alpha = None
    if n <= DECOMPOSE_MAX_N:
        table = evaluate_table(v)
        alpha = _exhaustive_alpha(table, n)
        if alpha_lb is not None and alpha_lb > alpha + 1e-12:
            raise ValueError(
                f"alpha_lb={alpha_lb} exceeds true alpha={alpha}; "
                "the resulting first part would not be submodular")
    elif alpha_lb is None:
        raise ValueError(f"n={n} > {DECOMPOSE_MAX_N}: supply alpha_lb to decompose")

    candidates = [a for a in (alpha, alpha_lb) if a is not None]
    alpha_eff = min(candidates)
    beta = sqrt_curvature(n) if n >= 2 else math.nan

    if alpha_eff >= 0.0:  # already submodular: v itself plus a zero part
        zero = SetFunctionOracle(ground, lambda S: 0.0, name="zero")
        return DSDecomposition(v, zero, alpha=alpha_eff, beta=beta, scale=0.0)

    scale = abs(alpha_eff) / beta
    if table is not None:
        f_fn = lambda S, _t=table, _s=scale: float(_t[mask_of(S)] + _s * math.sqrt(len(S)))
    else:
        f_fn = lambda S, _v=v, _s=scale: _v(S) + _s * math.sqrt(len(S))
    f = SetFunctionOracle(ground, f_fn, name="v_plus_sqrt")
    g = SetFunctionOracle(ground, lambda S, _s=scale: _s * math.sqrt(len(S)),
                          name="scaled_sqrt")
    return DSDecomposition(f, g, alpha=alpha_eff, beta=beta, scale=scale)


def minima_lower_bounds(f: SetFunctionOracle, g: SetFunctionOracle,
                        sfm_solver: Callable[[SetFunctionOracle], Sequence]) -> tuple[float, float]:
    """Two lower bounds on the minimum of v = f - g over all subsets.

    Writing f and g as monotone parts plus modular shifts, with k the
    modular function of full-context gains of v:

    * bound1 minimizes the submodular function f'(X) + k(X) (delegated to
      the supplied minimizer) and subtracts g' of the full set;
    * bound2 is the cheaper closed form f'(empty) - g'(V) plus the sum of
      the negative parts of k.

    bound2 <= bound1 <= min v, and bound2 is exact when f and g are
    modular.  The solver must return at least (set, value).
    """
    ground = f.ground
    if ground.n != g.ground.n:
        raise ValueError("f and g must share a ground set")
    V = ground.full
    nf = totally_normalize(f)
    ng = totally_normalize(g)
    k = nf.shift.weights - ng.shift.weights
    g_prime_V = ng.polymatroid(V)

    def inner(S, _f=f, _kg=ng.shift.weights):
        # f'(S) + k(S) simplifies to f(S) minus the g-side shifts
        return _f(S) - sum(_kg[j - 1] for j in S)

    inner_oracle = SetFunctionOracle(ground, inner, name="fprime_plus_k")
    res = sfm_solver(inner_oracle)
    bound1 = float(res[1]) - g_prime_V
    bound2 = nf.polymatroid(frozenset()) - g_prime_V + float(np.minimum(k, 0.0).sum())
    return bound1, bound2
