"""Exact minimization of f - w, f normalized submodular and w a weight vector.

The greedy linear-optimization primitive over the base polytope (Edmonds)
plus Wolfe's nearest-point algorithm give the classic Fujishige-Wolfe
minimizer: find the minimum-norm point of the base polytope, then read the
minimal minimizer off its strictly negative coordinates.  A base vertex of
f - w is f's chain gains minus w, so f - w is never summed over a set.  The
corral's squared row norms are kept in a list instead of being summed again
each major cycle, with the same bits.  Hitting the major-cycle cap raises a
plain ``RuntimeError`` that reports the gap.  A min-norm point x of f - w_p
gives the point x + (w_p - w) of B(f - w), which may prove its rounded set
the unique minimizer of f - w without a second run (Edmonds' min-max theorem).

References:
  Wolfe, "Finding the nearest point in a polytope", Math. Prog. 11 (1976).
  Fujishige & Isotani, "A submodular function minimization algorithm based
  on the minimum-norm base", Pacific J. Optim. 7 (2011).
"""

from __future__ import annotations

import numpy as np

from .core import FLOAT_TOL, MemoizedOracle, SetFunctionOracle, chain_gains, memoized, set_sum


def greedy_base_vertex(f: SetFunctionOracle, direction, w=None) -> np.ndarray:
    """Linear optimization over the base polytope of a normalized submodular f - w.

    Returns the coordinate vector of the argmin over the base polytope of
    the inner product with ``direction``: elements are sorted by ascending
    direction value (ties by index) and the vertex coordinates are f's
    telescoped gains along that order, minus the weights ``w`` if given.
    """
    n = f.ground.n
    d = np.asarray(direction, dtype=float)
    if d.shape != (n,):
        raise ValueError(f"direction must have length {n}")
    q = chain_gains(f, (np.argsort(d, kind="stable") + 1).tolist())
    return q if w is None else q - w


def _affine_minimizer(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point of minimum norm in the affine hull of the rows of S.

    Solves the normal equations on the vertex differences; returns the
    point and its affine coefficients.
    """
    m = S.shape[0]
    if m == 1:
        return S[0].copy(), np.ones(1)
    D = S[1:] - S[0]
    A = D @ D.T
    b = -D @ S[0]
    try:
        mu = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        mu, *_ = np.linalg.lstsq(A, b, rcond=None)
    coeffs = np.empty(m)
    coeffs[1:] = mu
    coeffs[0] = 1.0 - mu.sum()
    return S[0] + D.T @ mu, coeffs


_DROP_TOL = 1e-12
_GAP_TOL = 1e-10  # relative duality gap at which the point counts as optimal
# x_j < -ROUND_TOL marks the minimal minimizer, x_j < ROUND_TOL the maximal one
ROUND_TOL = 1e-9


def min_norm_point(f: SetFunctionOracle, w=None) -> tuple[frozenset, float, np.ndarray]:
    """Minimize f - w exactly; f must be 0 at the empty set and w defaults to 0.

    Runs Wolfe's major/minor cycle over base-polytope vertices produced by
    the greedy primitive, for at most 100 n^2 major cycles.  Returns
    ``(X, f(X) - w(X), x)`` where ``x`` is the (approximate) minimum-norm point,
    ``X = {j : x_j < -ROUND_TOL}`` is the minimal minimizer and w(X) is
    ``set_sum`` in X's order.  ``ValueError`` if |f(empty)| > ``FLOAT_TOL``.
    """
    n = f.ground.n
    if w is not None and np.shape(w) != (n,):
        raise ValueError(f"weights must have length {n}")
    fm = f if isinstance(f, MemoizedOracle) else memoized(f)
    if not abs(f0 := fm(frozenset())) <= FLOAT_TOL:  # also rejects NaN
        raise ValueError(f"f must be normalized: value at empty set is {f0!r}")

    x = greedy_base_vertex(fm, np.zeros(n), w)
    S = x.reshape(1, n).copy()
    norms = [float(np.sum(x * x))]  # squared row norms of S
    lam = np.ones(1)

    for _ in range(100 * n * n):
        q = greedy_base_vertex(fm, x, w)
        corr = max(1.0, float(x @ x), float(q @ q), max(norms))
        gap = float(x @ x - x @ q)
        if gap <= _GAP_TOL * corr:
            break
        if (np.abs(S - q).max(axis=1) <= _DROP_TOL * corr).any():
            break  # vertex already active: numerically optimal
        S = np.vstack([S, q])
        norms.append(float(np.sum(q * q)))
        lam = np.append(lam, 0.0)

        for _minor in range(10 * n + 100):
            y, coeffs = _affine_minimizer(S)
            if coeffs.min() >= -_DROP_TOL:
                x, lam = y, np.maximum(coeffs, 0.0)
                break
            # step toward y until the first coefficient hits zero
            neg = coeffs < -_DROP_TOL
            theta = float(np.min(lam[neg] / (lam[neg] - coeffs[neg])))
            lam = (1.0 - theta) * lam + theta * coeffs
            keep = lam > _DROP_TOL
            if not keep.any():
                keep[int(np.argmax(lam))] = True
            S = S[keep]
            norms = [r for r, k in zip(norms, keep.tolist()) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = S.T @ lam
        else:
            break  # minor cycle stuck; x is the best affine point available
    else:
        raise RuntimeError(f"min-norm point did not converge (gap={gap:.3e})")

    X = frozenset(int(j) + 1 for j in np.where(x < -ROUND_TOL)[0])
    return X, fm(X) - (0.0 if w is None else set_sum(np.asarray(w, float).tolist(), X)), x


def certifies_unique_minimizer(X: frozenset, y: np.ndarray, slack: float) -> bool:
    """Whether y in B(f - w) with (f - w)(X) = y(X) + slack proves X the unique minimizer.

    True if y < -ROUND_TOL on X, y > ROUND_TOL off X and slack < m = min |y_j|:
    then (f - w)(Y) >= y(Y) >= y(X) + m |Y ^ X| > (f - w)(X) for every Y != X
    (Edmonds' min-max theorem).
    """
    return (bool((np.abs(y) > max(ROUND_TOL, slack)).all())
            and X == frozenset((np.flatnonzero(y < 0) + 1).tolist()))
