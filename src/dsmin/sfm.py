"""Exact minimization of f - w, f normalized submodular and w a weight vector.

Single-element gains first narrow the minimizers to a lattice [A, B], from
gains at the empty set and at V - j that the memo keeps (``end_gains``).  If
A < B, the classic Fujishige-Wolfe minimizer runs over B - A: the greedy
linear-optimization primitive over the base polytope (Edmonds) plus Wolfe's
nearest-point algorithm find the minimum-norm point, whose negative and
non-positive coordinates give the minimal and maximal minimizers.  A base
vertex of f - w is f's chain gains minus w, so f - w is never summed over a
set.  The corral's squared row norms are kept, not summed again each major
cycle.

Wolfe's loop stops at the first of: Edmonds' duality certificate, the
relative gap, a vertex already in the corral, a stuck minor cycle, and the
major-cycle cap, which raises a plain ``RuntimeError`` with the gap.  The
certificate: any x in the base polytope B(F) has x^-(E) = sum of min(x_j, 0)
<= x(M) <= F(M) for every set M, so x^-(E) <= min F (Edmonds' min-max
theorem).  The next greedy vertex sorts E by ascending x, so both rounded
sets are prefixes of its chain and its coordinates sum to F on them.  Once
both values lie within ``ROUND_TOL`` of x^-(E), both sets are minimizers,
and every minimizer M has x(M) = x^-(E), so {x < 0} <= M <= {x <= 0}: they
are the minimal and the maximal minimizer, with no further oracle call.

References:
  Wolfe, "Finding the nearest point in a polytope", Math. Prog. 11 (1976).
  Edmonds, "Submodular functions, matroids, and certain polyhedra" (1970).
  Fujishige & Isotani, "A submodular function minimization algorithm based
  on the minimum-norm base", Pacific J. Optim. 7 (2011).
  Chakrabarty, Jain & Kothari, "Provable submodular minimization using
  Wolfe's algorithm", NeurIPS 2014.
  Iyer, Jegelka & Bilmes, "Fast semidifferential-based submodular function
  optimization", ICML 2013.
"""

from __future__ import annotations

import numpy as np

from .core import (FLOAT_TOL, MemoizedOracle, SetFunctionOracle, chain_gains, element_indexed,
                   memoized, real_array, set_sum)


def greedy_base_vertex(f: SetFunctionOracle, direction, w=None, base: frozenset = frozenset(),
                       elements=None) -> np.ndarray:
    """Linear optimization over the base polytope of a normalized submodular f - w.

    Returns the coordinate vector of the argmin over the base polytope of
    the inner product with ``direction``: elements are sorted by ascending
    direction value (ties by index) and the vertex coordinates are f's
    telescoped gains along that order, minus the weights ``w`` if given.
    Given ``elements`` E, an ascending array of elements outside ``base`` A,
    the same for S -> f(A | S) - f(A) - w(S) over E, indexed by E's order.
    """
    E = np.arange(1, f.ground.n + 1) if elements is None else elements
    d = np.asarray(direction, dtype=float)
    if d.shape != E.shape:
        raise ValueError(f"direction must have length {len(E)}")
    by = np.argsort(d, kind="stable")
    q = np.empty(len(E))
    q[by] = chain_gains(f, E[by].tolist(), base)
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
    coeffs[0] = 1.0 - np.add.reduce(mu)
    return S[0] + D.T @ mu, coeffs


_DROP_TOL = 1e-12
_GAP_TOL = 1e-10  # relative duality gap at which the point counts as optimal
# x_j < -ROUND_TOL marks the minimal minimizer, x_j < ROUND_TOL the maximal one;
# a gain beyond it puts an element inside or outside every minimizer
ROUND_TOL = 1e-9


def _minimizer_lattice(f: MemoizedOracle, w: list[float]) -> tuple[frozenset, frozenset]:
    """Sets A <= B with A <= M <= B for every minimizer M of a submodular f - w.

    Each round moves the j in B - A with (f - w)(j | A) < -ROUND_TOL into A
    and those with (f - w)(j | B - j) > ROUND_TOL out of B, as gains only
    fall as the context grows.  Only a non-submodular f can send one j both
    ways; then the lattice is all of 2^V.  Round one reads ``f.end_gains()``;
    a later round tests only a side that moved, as the other side's tests would
    be memo hits that move nothing, and evaluates f(A), then f(B), before any
    neighbour: B can be A + j, and the first set object to reach the memo
    fixes the order of that set's sums.  A and B are copied every round, moved
    or not, as a copy's iteration order can differ from the original's.
    """
    lo, hi = f.end_gains()
    grow = {j for j, (g, wj) in enumerate(zip(lo, w), 1) if g - wj < -ROUND_TOL}
    shrink = {j for j, (g, wj) in enumerate(zip(hi, w), 1) if g - wj > ROUND_TOL}
    A, B = frozenset(), f.ground.full
    while grow or shrink:
        if grow & shrink:
            return frozenset(), f.ground.full
        A, B = A | grow, B - shrink
        if grow:
            fA = f(A)
        if shrink:
            fB = f(B)
        free = sorted(B - A)
        grow = grow and {j for j in free if f(A | {j}) - fA - w[j - 1] < -ROUND_TOL}
        shrink = shrink and {j for j in free if fB - f(B - {j}) - w[j - 1] > ROUND_TOL}
    return A, B


def min_norm_point(f: SetFunctionOracle, w=None) -> tuple[frozenset, float, frozenset]:
    """Minimize f - w exactly; f must be submodular and 0 at the empty set, and
    w defaults to 0.

    Narrows the minimizers to a lattice [A, B] (``_minimizer_lattice``), then
    runs Wolfe's major/minor cycle on F: S -> f(A | S) - f(A) - w(S) over
    E = B - A, m = |E|; none if A = B.  Each major cycle makes the greedy
    vertex q at the iterate x and stops, in this order: if q sums to at most
    x^-(E) + ``ROUND_TOL`` on both {x < -ROUND_TOL} and {x < ROUND_TOL}
    (prefixes of q's chain, so q sums to F there, while x^-(E) <= min F as x
    lies in F's base polytope, which needs f submodular); if the gap x.x -
    x.q is within a relative 1e-10; if q is already in the corral; if a
    minor cycle is stuck; ``RuntimeError`` after 100 m^2 major cycles.
    Returns ``(X, f(X) - w(X), Y)`` where X = A | {j : x_j < -ROUND_TOL} is
    the minimal and Y = A | {j : x_j < ROUND_TOL} the maximal minimizer,
    and w(X) is ``set_sum`` in X's order over ``element_indexed(w)``; the
    lattice reads the unpadded list by ``j - 1``.  ``ValueError`` if w
    holds a string, a bool or a value that is not finite, or if
    |f(empty)| > ``FLOAT_TOL``.
    """
    n = f.ground.n
    if w is None:
        w = np.zeros(n)
    elif not (isinstance(w, np.ndarray) and w.dtype == np.float64):  # as the bounds give
        w = real_array(w, "weights")  # rejects strings and bools
    if w.shape != (n,):
        raise ValueError(f"weights must have length {n}")
    if not (finite := np.isfinite(w)).all():
        raise ValueError(f"weights must be finite: w[{(j := np.argmin(finite))}] is {w[j]!r}")
    fm = memoized(f)
    if not abs(f0 := fm(frozenset())) <= FLOAT_TOL:  # also rejects NaN
        raise ValueError(f"f must be normalized: value at empty set is {f0!r}")
    weights = w.tolist()
    A, B = _minimizer_lattice(fm, weights)
    if A == B:
        return A, fm(A) - set_sum(element_indexed(weights), A), A

    E = np.array(sorted(B - A))
    m = len(E)
    wE = w[E - 1]
    x = greedy_base_vertex(fm, np.zeros(m), wE, A, E)
    S = x.reshape(1, m).copy()
    norms = [float(np.add.reduce(x * x))]  # squared row norms of S
    lam = np.ones(1)

    for _ in range(100 * m * m):
        q = greedy_base_vertex(fm, x, wE, A, E)
        # both roundings of x are prefixes of q's chain, so q sums to F on them
        low = float(np.add.reduce(np.minimum(x, 0.0))) + ROUND_TOL  # x^-(E) <= min F
        if np.add.reduce(q[x < -ROUND_TOL]) <= low and np.add.reduce(q[x < ROUND_TOL]) <= low:
            break  # both are minimizers: the duality certificate
        xx = float(x @ x)
        corr = max(1.0, xx, float(q @ q), max(norms))
        gap = xx - float(x @ q)
        if gap <= _GAP_TOL * corr:
            break
        if np.minimum.reduce(np.maximum.reduce(np.abs(S - q), axis=1)) <= _DROP_TOL * corr:
            break  # vertex already active: numerically optimal
        S = np.concatenate((S, q.reshape(1, m)))
        norms.append(float(np.add.reduce(q * q)))
        lam = np.concatenate((lam, [0.0]))

        for _minor in range(10 * m + 100):
            y, coeffs = _affine_minimizer(S)
            if np.minimum.reduce(coeffs) >= -_DROP_TOL:
                x, lam = y, np.maximum(coeffs, 0.0)
                break
            # step toward y until the first coefficient hits zero
            neg = coeffs < -_DROP_TOL
            theta = float(np.minimum.reduce(lam[neg] / (lam[neg] - coeffs[neg])))
            lam = (1.0 - theta) * lam + theta * coeffs
            keep = lam > _DROP_TOL
            if not np.logical_or.reduce(keep):
                keep[int(np.argmax(lam))] = True
            S = S[keep]
            norms = [r for r, k in zip(norms, keep.tolist()) if k]
            lam = lam[keep]
            lam = lam / np.add.reduce(lam)
            x = S.T @ lam
        else:
            break  # minor cycle stuck; x is the best affine point available
    else:
        raise RuntimeError(f"min-norm point did not converge (gap={gap:.3e})")

    X = A | frozenset(E[x < -ROUND_TOL].tolist())
    return X, fm(X) - set_sum(element_indexed(weights), X), A | frozenset(E[x < ROUND_TOL].tolist())
