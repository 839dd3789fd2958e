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

Wolfe's loop runs on plain Python floats: the iterate, the vertices, the
affine weights and the corral are lists.  Its corrals hold a few vertices of
a few coordinates each, where numpy's fixed cost per call outweighs the
arithmetic.  The normal equations of the corral's differences to its first
vertex are kept from one minor cycle to the next: an added vertex appends
its row and column, and a drop rebuilds them from the vertices that stay.
``_solve`` solves them by Gaussian elimination with partial pivoting.  Sums
are added one by one from 0.0, not by ``sum()``, which is compensated on
Python >= 3.12: the last bit of the iterate can reorder the next vertex's
chain.  numpy is left in reading the weights and in ``np.linalg.lstsq``,
called only on a zero pivot.

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

from operator import sub

import numpy as np

from .core import (FLOAT_TOL, MemoizedOracle, SetFunctionOracle, chain_gains, element_indexed,
                   memoized, real_array, set_sum)


def greedy_base_vertex(f: SetFunctionOracle, direction, w=None, base: frozenset = frozenset(),
                       elements=None) -> list[float]:
    """Linear optimization over the base polytope of a normalized submodular f - w.

    Returns the coordinate list of the argmin over the base polytope of the
    inner product with the sequence ``direction``: elements are sorted by
    ascending direction value (ties by position) and the vertex coordinates
    are f's telescoped gains along that order, minus the weights ``w`` if
    given.  Given ``elements`` E, an ascending list of elements outside
    ``base`` A, the same for S -> f(A | S) - f(A) - w(S) over E, indexed by
    E's order.
    """
    E = range(1, f.ground.n + 1) if elements is None else elements
    if len(direction) != len(E):
        raise ValueError(f"direction must have length {len(E)}")
    by = sorted(range(len(E)), key=direction.__getitem__)
    q = [0.0] * len(E)
    for i, gain in zip(by, chain_gains(f, [E[i] for i in by], base)):
        q[i] = gain
    return q if w is None else list(map(sub, q, w))


def _dot(a: list[float], b: list[float]) -> float:
    """a . b, added one by one from 0.0: ``sum()`` over floats is compensated
    on Python >= 3.12, and the last bit of the iterate picks later vertices."""
    t = 0.0
    for u, v in zip(a, b):
        t += u * v
    return t


def _kept(seq: list, keep: list[bool]) -> list:
    return [v for v, k in zip(seq, keep) if k]


def _combination(coeffs: list[float], rows: list[list[float]]) -> list[float]:
    """sum_i coeffs[i] * rows[i], added row by row; at least one row."""
    c, r = coeffs[0], rows[0]
    out = [c * v for v in r]
    for c, r in zip(coeffs[1:], rows[1:]):
        out = [o + c * v for o, v in zip(out, r)]
    return out


def _extend(system: tuple[list, list, list], s0: list[float], q: list[float]) -> None:
    """Add d = q - s0 to the differences D of ``system`` = (D, G, r), with its
    row and column of the normal equations G mu = r: G = D D^T, r = -D s0."""
    D, G, r = system
    d = list(map(sub, q, s0))
    row = [_dot(d, e) for e in D]
    for g, v in zip(G, row):
        g.append(v)
    row.append(_dot(d, d))
    G.append(row)
    D.append(d)
    r.append(-_dot(d, s0))


def _normal_equations(S: list[list[float]]) -> tuple[list, list, list]:
    """(D, G, r) of the corral S, its vertices added one by one (``_extend``)."""
    system = ([], [], [])
    for q in S[1:]:
        _extend(system, S[0], q)
    return system


def _solve(G: list[list[float]], r: list[float]) -> list[float]:
    """mu with G mu = r, by Gaussian elimination with partial pivoting.

    The LU is left-looking: column j is brought up to date by dot products
    with the columns before it, pivoted on its largest entry and scaled by
    the pivot's reciprocal; the two triangular solves then run column by
    column.  A pivot of exactly zero, as a singular G gives when a vertex is
    an affine combination of others, hands the system to
    ``np.linalg.lstsq`` instead.  Each call eliminates from scratch, O(k^3)
    interpreted operations for k rows (``min_norm_point`` names the cost).
    """
    k = len(r)
    M = [row[:] for row in G]  # becomes L below the diagonal and U on and above it
    b = r[:]  # becomes L^-1 P r, then mu
    for j in range(k):
        u = [M[0][j]]  # column j of U above the diagonal, top down
        for i in range(1, j):
            row = M[i]
            row[j] -= _dot(row[:i], u)
            u.append(row[j])
        if j:
            for row in M[j:]:
                row[j] -= _dot(row[:j], u)
        col = [abs(row[j]) for row in M[j:]]
        p = j + col.index(max(col))
        M[j], M[p], b[j], b[p] = M[p], M[j], b[p], b[j]
        piv = M[j][j]
        if piv == 0.0:
            return np.linalg.lstsq(np.array(G), np.array(r), rcond=None)[0].tolist()
        inv, bj = 1.0 / piv, b[j]
        for row in M[j + 1:]:
            row[j] *= inv
        b[j + 1:] = [v - bj * row[j] for v, row in zip(b[j + 1:], M[j + 1:])]
    for j in range(k - 1, -1, -1):
        b[j] /= M[j][j]
        bj = b[j]
        b[:j] = [v - bj * row[j] for v, row in zip(b[:j], M)]
    return b


def _affine_minimizer(s0: list[float], system: tuple[list, list, list]
                      ) -> tuple[list[float], list[float]]:
    """Point of minimum norm in the affine hull of s0 and s0 + D[i], and its
    affine coefficients, s0's first, from ``system`` = (D, G, r) (``_extend``)."""
    D, G, r = system
    mu = _solve(G, r)
    total = 0.0
    for v in mu:
        total += v
    return _combination([1.0, *mu], [s0, *D]), [1.0 - total, *mu]


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
    E = B - A, m = |E|, on float lists (module docstring); none if A = B.
    Each major cycle makes the greedy vertex q at the iterate x and stops,
    in this order: if q sums to at most x^-(E) + ``ROUND_TOL`` on both
    {x < -ROUND_TOL} and {x < ROUND_TOL} (prefixes of q's chain, so q sums
    to F there, while x^-(E) <= min F as x lies in F's base polytope, which
    needs f submodular); if the gap x.x - x.q is within a relative 1e-10; if
    q is already in the corral; if a minor cycle is stuck; ``RuntimeError``
    after 100 m^2 major cycles.
    Every minor cycle solves the corral's k x k system afresh in Python
    (``_solve``), O(k^3), and a drop rebuilds the system, O(k^2 m): quick
    for the corrals of at most a dozen vertices that SFMs at n <= 128
    mostly keep, but a degenerate f - w whose corral stays at 20-25
    vertices runs over ten times slower than on numpy.
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

    E = sorted(B - A)
    m = len(E)
    wE = [weights[j - 1] for j in E]
    x = greedy_base_vertex(fm, [0.0] * m, wE, A, E)
    S, norms, lam = [x], [_dot(x, x)], [1.0]  # the corral, its squared norms, x's weights
    system = _normal_equations(S)  # of S's differences to S[0]

    for _ in range(100 * m * m):
        q = greedy_base_vertex(fm, x, wE, A, E)
        # both roundings of x are prefixes of q's chain, so q sums to F on them
        neg = q_lo = q_hi = 0.0
        for xj, qj in zip(x, q):
            if xj < ROUND_TOL:
                q_hi += qj
                if xj < 0.0:
                    neg += xj
                    if xj < -ROUND_TOL:
                        q_lo += qj
        low = neg + ROUND_TOL  # x^-(E) <= min F
        if q_lo <= low and q_hi <= low:
            break  # both are minimizers: the duality certificate
        xx, qq = _dot(x, x), _dot(q, q)
        corr = max(1.0, xx, qq, max(norms))
        gap = xx - _dot(x, q)
        if gap <= _GAP_TOL * corr:
            break
        tol = _DROP_TOL * corr
        if any(max(map(abs, map(sub, s, q))) <= tol for s in S):
            break  # vertex already active: numerically optimal
        S.append(q)
        norms.append(qq)
        lam.append(0.0)
        _extend(system, S[0], q)

        for _minor in range(10 * m + 100):
            y, coeffs = _affine_minimizer(S[0], system)
            if min(coeffs) >= -_DROP_TOL:
                x, lam = y, [max(c, 0.0) for c in coeffs]
                break
            # step toward y until the first coefficient hits zero
            theta = min(a / (a - c) for a, c in zip(lam, coeffs) if c < -_DROP_TOL)
            lam = [(1.0 - theta) * a + theta * c for a, c in zip(lam, coeffs)]
            keep = [a > _DROP_TOL for a in lam]
            if not any(keep):
                keep[lam.index(max(lam))] = True
            S, norms, lam = _kept(S, keep), _kept(norms, keep), _kept(lam, keep)
            system = _normal_equations(S)  # rebuilt without the leaving vertices
            total = 0.0
            for a in lam:
                total += a
            lam = [a / total for a in lam]
            x = _combination(lam, S)
        else:
            break  # minor cycle stuck; x is the best affine point available
    else:
        raise RuntimeError(f"min-norm point did not converge (gap={gap:.3e})")

    X = A | frozenset([j for j, v in zip(E, x) if v < -ROUND_TOL])
    Y = A | frozenset([j for j, v in zip(E, x) if v < ROUND_TOL])
    return X, fm(X) - set_sum(element_indexed(weights), X), Y
