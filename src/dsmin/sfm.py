"""Exact submodular function minimization via the minimum-norm-point method.

The greedy linear-optimization primitive over the base polytope (Edmonds)
plus Wolfe's nearest-point algorithm give the classic Fujishige-Wolfe
minimizer: find the minimum-norm point of the base polytope, then read the
minimal minimizer off its strictly negative coordinates.  Hitting the
major-cycle cap raises a plain ``RuntimeError`` that reports the gap.

References:
  Wolfe, "Finding the nearest point in a polytope", Math. Prog. 11 (1976).
  Fujishige & Isotani, "A submodular function minimization algorithm based
  on the minimum-norm base", Pacific J. Optim. 7 (2011).
"""

from __future__ import annotations

import numpy as np

from .core import MemoizedOracle, SetFunctionOracle, chain_gains, memoized


def greedy_base_vertex(f: SetFunctionOracle, direction) -> np.ndarray:
    """Linear optimization over the base polytope of a normalized submodular f.

    Returns the coordinate vector of the argmin over the base polytope of
    the inner product with ``direction``: elements are sorted by ascending
    direction value (ties by index) and the vertex coordinates are the
    telescoped gains along that order.
    """
    n = f.ground.n
    d = np.asarray(direction, dtype=float)
    if d.shape != (n,):
        raise ValueError(f"direction must have length {n}")
    order = tuple(int(i) + 1 for i in np.argsort(d, kind="stable"))
    return chain_gains(f, order)


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


def min_norm_point(f: SetFunctionOracle) -> tuple[frozenset, float, np.ndarray]:
    """Minimize a normalized submodular function exactly.

    Runs Wolfe's major/minor cycle over base-polytope vertices produced by
    the greedy primitive, for at most 100 n^2 major cycles.  Returns
    ``(X, f(X), x)`` where ``x`` is the (approximate) minimum-norm point and
    ``X = {j : x_j < -ROUND_TOL}`` is the minimal minimizer.
    """
    n = f.ground.n
    fm = f if isinstance(f, MemoizedOracle) else memoized(f)

    x = greedy_base_vertex(fm, np.zeros(n))
    S = x.reshape(1, n).copy()
    lam = np.ones(1)
    gap = np.inf

    for _ in range(100 * n * n):
        q = greedy_base_vertex(fm, x)
        corr = max(1.0, float(x @ x), float(q @ q), float(np.max(np.sum(S * S, axis=1))))
        gap = float(x @ x - x @ q)
        if gap <= _GAP_TOL * corr:
            break
        if np.any(np.all(np.abs(S - q) <= _DROP_TOL * corr, axis=1)):
            break  # vertex already active: numerically optimal
        S = np.vstack([S, q])
        lam = np.append(lam, 0.0)

        for _minor in range(10 * n + 100):
            y, coeffs = _affine_minimizer(S)
            if np.all(coeffs >= -_DROP_TOL):
                x, lam = y, np.maximum(coeffs, 0.0)
                break
            # step toward y until the first coefficient hits zero
            neg = coeffs < -_DROP_TOL
            theta = float(np.min(lam[neg] / (lam[neg] - coeffs[neg])))
            lam = (1.0 - theta) * lam + theta * coeffs
            keep = lam > _DROP_TOL
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            S = S[keep]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = S.T @ lam
        else:
            break  # minor cycle stuck; x is the best affine point available
    else:
        raise RuntimeError(f"min-norm point did not converge (gap={gap:.3e})")

    X = frozenset(int(j) + 1 for j in np.where(x < -ROUND_TOL)[0])
    return X, fm(X), x

