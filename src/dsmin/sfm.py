"""Exact submodular function minimization via the minimum-norm-point method.

The greedy linear-optimization primitive over the base polytope (Edmonds)
plus Wolfe's nearest-point algorithm give the classic Fujishige-Wolfe
minimizer: find the minimum-norm point of the base polytope, then read the
minimal minimizer off its strictly negative coordinates.

References:
  Wolfe, "Finding the nearest point in a polytope", Math. Prog. 11 (1976).
  Fujishige & Isotani, "A submodular function minimization algorithm based
  on the minimum-norm base", Pacific J. Optim. 7 (2011).
"""

from __future__ import annotations

import numpy as np

from .core import MemoizedOracle, SetFunctionOracle, chain_gains, memoized


class NonConvergenceError(RuntimeError):
    """Raised when the major-cycle cap is hit; carries the best point found."""

    def __init__(self, best_set, best_value, gap):
        super().__init__(f"min-norm point did not converge (gap={gap:.3e}); "
                         f"best value so far {best_value:.6g}")
        self.best_set = best_set
        self.best_value = best_value
        self.gap = gap


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


def min_norm_point(f: SetFunctionOracle, tol: float = 1e-10,
                   max_major: int | None = None) -> tuple[frozenset, float, np.ndarray]:
    """Minimize a normalized submodular function exactly.

    Runs Wolfe's major/minor cycle over base-polytope vertices produced by
    the greedy primitive.  Returns ``(X, f(X), x)`` where ``x`` is the
    (approximate) minimum-norm point and ``X = {j : x_j < -tol'}`` is the
    minimal minimizer, with the rounding threshold ``tol'`` derived from
    ``tol``.  Raises :class:`NonConvergenceError` past the iteration cap.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = f.ground.n
    fm = f if isinstance(f, MemoizedOracle) else memoized(f)
    cap = max_major if max_major is not None else 100 * n * n
    tol_prime = max(10.0 * tol, 1e-9)

    x = greedy_base_vertex(fm, np.zeros(n))
    S = x.reshape(1, n).copy()
    lam = np.ones(1)
    gap = np.inf

    for _ in range(cap):
        q = greedy_base_vertex(fm, x)
        corr = max(1.0, float(x @ x), float(q @ q), float(np.max(np.sum(S * S, axis=1))))
        gap = float(x @ x - x @ q)
        if gap <= tol * corr:
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
        best = frozenset(int(j) + 1 for j in np.where(x < -tol_prime)[0])
        raise NonConvergenceError(best, fm(best), gap)

    X = frozenset(int(j) + 1 for j in np.where(x < -tol_prime)[0])
    return X, fm(X), x

