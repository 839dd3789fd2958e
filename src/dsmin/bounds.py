"""Tight modular bounds on submodular functions and derived constructions.

A submodular function admits a tight modular lower bound built from the
telescoped gains along any permutation chain through a set, and two tight
modular upper bounds anchored at a set.  On top of those this module
provides the total normalization into a monotone part plus a modular
shift, the constants of a difference-of-submodular decomposition of an
arbitrary set function (``functions.decomposition_spec_pair`` builds the
pair itself), and two polynomial-time lower bounds on the global minimum
of a difference of submodular functions.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (EQ_TOL, PAIRWISE_MAX_N, AffineModular, SetFunctionOracle, evaluate_table,
                   mask_of, memoized, min_gain_drop, whole)


# A chain through the ground set: an ordering of 1..n, whose prefixes are the
# chain's sets.  ``modular_lower_bound`` checks it against g's ground set.
Permutation = tuple[int, ...]


def modular_lower_bound(g: SetFunctionOracle, Y: Iterable[int],
                        sigma: Permutation) -> AffineModular:
    """Tight modular lower bound on g from the gains along sigma's chain.

    sigma must order all of g's ground set 1..n, with Y as a prefix; its
    entries are read as ``core.whole`` reads them (2.0 and numpy integers
    become ints, a bool or a fraction is rejected), and a list is read as a
    tuple.  g must be normalized (0 at the empty set).  The result has
    offset 0, matches g on every chain prefix (hence at Y), and lower-bounds
    g everywhere when g is submodular.  g is read through ``memoized``, one
    keyed read per prefix.
    """
    Y, n = g.ground.check_subset(Y), g.ground.n
    if type(sigma) is not tuple or set(map(type, sigma)) != {int}:
        sigma = tuple(whole(j, "permutation entry") for j in sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {sigma}")
    if frozenset(sigma[:len(Y)]) != Y:
        raise ValueError(f"permutation chain {sigma} does not contain {sorted(Y)}")
    weights = [0.0] * n
    for j, gain in zip(sigma, memoized(g).chain_gains(sigma)):
        weights[j - 1] = gain
    return AffineModular(0.0, np.array(weights))


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
    f = memoized(f)  # a one-element change of X can be a context
    # gains of j in X are taken against `inside`, of j outside X against `outside`,
    # each set read by its bitmask
    x = mask_of(X)
    inside, k_in, outside, k_out = ((X, x, frozenset(), 0) if variant == 1
                                    else (f.ground.full, (1 << f.ground.n) - 1, X, x))
    offset = f.at(x, X)
    f_inside, f_outside = f.at(k_in, inside), f.at(k_out, outside)
    weights = np.empty(f.ground.n)
    for j in f.ground.elements():
        if j in X:
            w = f_inside - f.flip(inside, k_in, j)
            offset -= w
        else:
            w = f.flip(outside, k_out, j) - f_outside
        weights[j - 1] = w
    return AffineModular(offset, weights)


def totally_normalize(f: SetFunctionOracle) -> tuple[SetFunctionOracle, AffineModular]:
    """Total normalization of a normalized submodular f: ``(polymatroid, shift)``.

    ``polymatroid(X) + shift(X) == f(X)``; the polymatroid part is
    normalized and monotone non-decreasing, the shift has offset 0 with
    weight ``f(j | V - j)`` on element j.
    """
    ground = f.ground
    shift = AffineModular(0.0, modular_upper_bound(f, ground.full, 2).weights)
    part = SetFunctionOracle(ground, lambda S: f(S) - shift.value(S), name=f.name + "_monotone")
    return part, shift


def sqrt_curvature(n: int) -> float:
    """Strict-submodularity margin of sqrt(|X|) on n elements.

    The smallest possible drop in the gain of one element between nested
    contexts, attained at the largest context: 2*sqrt(n-1) - sqrt(n) - sqrt(n-2).
    """
    if n < 2:
        raise ValueError("curvature defined for n >= 2")
    return 2.0 * math.sqrt(n - 1) - math.sqrt(n) - math.sqrt(n - 2)


def ds_decompose(v: SetFunctionOracle,
                 alpha_lb: float | None = None) -> tuple[float, float, float]:
    """The constants ``(alpha, beta, scale)`` that write v as a difference of
    submodular parts.

    ``alpha`` measures how far v is from submodular (the most negative gain
    drop over nested contexts) and ``beta`` is the margin of the strictly
    submodular sqrt-cardinality term.  With ``scale = |alpha| / beta`` the
    pair ``f = v + scale * sqrt|X|`` and ``g = scale * sqrt|X|`` is
    submodular and reconstructs v exactly; a non-negative alpha gives scale
    0 (v is submodular already), and so does n < 2, where every set function
    is modular and beta is undefined (NaN).

    Computing ``alpha`` exhaustively is exponential, so it is guarded to
    n <= 16; for larger ground sets a valid lower bound ``alpha_lb``, a
    finite real number, must be supplied.
    """
    n = v.ground.n
    if alpha_lb is not None and (isinstance(alpha_lb, bool)
                                 or not isinstance(alpha_lb, numbers.Real)
                                 or not math.isfinite(alpha_lb)):
        raise ValueError(f"alpha_lb must be a finite real number, got {alpha_lb!r}")
    alpha = alpha_lb
    if n <= PAIRWISE_MAX_N:
        alpha = min_gain_drop(evaluate_table(v), n)
        if alpha_lb is not None:
            if alpha_lb > alpha + EQ_TOL:
                raise ValueError(
                    f"alpha_lb={alpha_lb} exceeds true alpha={alpha}; "
                    "the resulting first part would not be submodular")
            alpha = min(alpha, alpha_lb)
    elif alpha_lb is None:
        raise ValueError(f"n={n} > {PAIRWISE_MAX_N}: supply alpha_lb to decompose")

    beta = sqrt_curvature(n) if n >= 2 else math.nan
    scale = 0.0 if alpha >= 0.0 or n < 2 else abs(alpha) / beta
    return alpha, beta, scale


def minima_lower_bounds(f: SetFunctionOracle, g: SetFunctionOracle,
                        sfm_solver: Callable[[SetFunctionOracle, np.ndarray], Sequence]
                        ) -> tuple[float, float]:
    """Two lower bounds on the minimum of v = f - g over all subsets.

    Writing f and g as monotone parts plus modular shifts, with k the
    modular function of full-context gains of v:

    * bound1 minimizes the submodular function f'(X) + k(X), which is f
      minus the g-side shift, and subtracts g' of the full set;
    * bound2 is the cheaper closed form f'(empty) - g'(V) plus the sum of
      the negative parts of k.

    bound2 <= bound1 <= min v, and bound2 is exact when f and g are
    modular.  ``sfm_solver(f, w)`` minimizes f - w for a weight vector w
    and returns at least (set, value); ``min_norm_point`` does, running no
    Wolfe loop when single-element gains already pin the minimizer.
    """
    if f.ground.n != g.ground.n:
        raise ValueError("f and g must share a ground set")
    f, g = memoized(f), memoized(g)  # the bounds and the SFM share evaluations
    f_prime, f_shift = totally_normalize(f)
    g_prime, g_shift = totally_normalize(g)
    k = f_shift.weights - g_shift.weights
    g_prime_V = g_prime(g.ground.full)
    bound1 = float(sfm_solver(f, g_shift.weights)[1]) - g_prime_V
    bound2 = f_prime(frozenset()) - g_prime_V + float(np.minimum(k, 0.0).sum())
    return bound1, bound2
