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
arithmetic.  As in Wolfe's paper, the corral S of k vertices is kept as an
upper-triangular R with R^T R = 1 1^T + S S^T, and z with R^T z = 1.  An
added vertex gains a column from one forward solve (``_append``), a minor
cycle solves R lambda = z (``_affine_weights``), and a drop deletes a column
and makes R triangular again with Givens rotations (``_drop``): O(k^2) each,
and O(k m) for an added vertex's products with the corral.  Sums are added
one by one from 0.0, not by ``sum()``, which is compensated on Python >=
3.12: the last bit of the iterate can reorder the next vertex's chain.

Wolfe's loop has four exits: Edmonds' duality certificate, the relative gap,
the factor's refusal of a vertex in the corral's affine hull, and the
major-cycle cap, which raises a plain ``RuntimeError`` with the gap.  The
certificate: any x in the base polytope B(F) has x^-(E) = sum of
min(x_j, 0) <= x(M) <= F(M) for every set M, so x^-(E) <= min F (Edmonds'
min-max theorem).  The next greedy vertex sorts E by ascending x, so both
rounded sets are prefixes of its chain and its coordinates sum to F on them.
Once both values lie within ``ROUND_TOL`` of x^-(E), both sets are
minimizers, and every minimizer M has x(M) = x^-(E), so
{x < 0} <= M <= {x <= 0}: they are the minimal and the maximal minimizer,
with no further oracle call.  A vertex in the affine hull: x is the point of
minimum norm in aff(S), so x.p = x.x for every p there and such a vertex has
gap 0.  It passes the gap test only at rounding level, and then the factor
has no room for it (``_append``); a repeated vertex is one, and the gap test
stops it.  One near a corral vertex (within a relative ``_DROP_TOL``) but not
equal to it joins the corral; no test or benchmark seed makes one.  A minor
cycle runs until a pass accepts: a pass that does not zeroes the weight where
its step stops, to rounding level, while the weights sum to 1, so it drops at
least one vertex but not all.

A known limit: when f - w ties on a whole chain, the certificate needs x^-(E)
within ``ROUND_TOL`` of min F = 0, and the gap test can stop first with |x_j|
near 1e-6, so a middle set comes back as both minimizers where the empty set
and V are.

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

import math
from operator import sub

from .core import (FLOAT_TOL, MemoizedOracle, SetFunctionOracle, element_indexed, mask_of,
                   memoized, real_array, set_sum)


def greedy_base_vertex(f: SetFunctionOracle, direction, w, base: frozenset, E) -> list[float]:
    """Linear optimization over the base polytope of F: S -> f(A | S) - f(A) - w(S)
    over E, an ascending list of elements outside ``base`` A.

    Returns the coordinate list, in E's order, of the argmin over that
    polytope of the inner product with the sequence ``direction``: E is
    sorted by ascending direction value (ties by position) and the vertex
    coordinates are f's telescoped gains from A along that order, minus w.
    f is read through ``memoized``, along one chain.
    """
    if len(direction) != len(E):
        raise ValueError(f"direction must have length {len(E)}")
    by = sorted(range(len(E)), key=direction.__getitem__)
    q = [0.0] * len(E)
    for i, gain in zip(by, memoized(f).chain_gains([E[i] for i in by], base)):
        q[i] = gain
    return list(map(sub, q, w))


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


def _append(R: list[list[float]], z: list[float], S: list[list[float]], q: list[float],
            qq: float) -> bool:
    """Extend the factor of the corral S by a vertex q with q.q = ``qq``.

    R is upper triangular with R^T R = 1 1^T + S S^T, kept by columns (column
    i holds rows 0..i), and R^T z = 1.  q's column is r, from one forward
    solve R^T r = (1 + s_i.q)_i, over the diagonal rho = sqrt(1 + q.q - r.r),
    and z gains (1 - r.z) / rho.  False, R and z unchanged, if rho^2 <= 0:
    q lies in the affine hull of S, up to rounding.
    """
    r = []
    for col, s in zip(R, S):
        r.append((1.0 + _dot(s, q) - _dot(col, r)) / col[-1])  # col's first i rows
    rho2 = 1.0 + qq - _dot(r, r)
    if rho2 <= 0.0:
        return False
    rho = math.sqrt(rho2)
    z.append((1.0 - _dot(r, z)) / rho)
    r.append(rho)
    R.append(r)
    return True


def _affine_weights(R: list[list[float]], z: list[float]) -> list[float]:
    """Affine coefficients lambda of the point y = S^T lambda of minimum norm
    in the affine hull of the corral whose factor is R (``_append``).  Every
    s_i.y is the same there, so (1 1^T + S S^T) lambda is a multiple of 1:
    R lambda = z, solved row by row from the last, then scaled to sum 1."""
    k = len(R)
    lam = [0.0] * k
    for i in range(k - 1, -1, -1):
        t = z[i]
        for j in range(k - 1, i, -1):
            t -= R[j][i] * lam[j]
        lam[i] = t / R[i][i]
    total = 0.0
    for v in lam:
        total += v
    return [v / total for v in lam]


def _drop(R: list[list[float]], z: list[float], i: int) -> None:
    """Make R and z (``_append``) those of the corral without its vertex i:
    delete column i, then a Givens rotation of rows (c, c + 1), for c = i,
    i + 1, ..., zeroes the entry below column c's diagonal, a former diagonal
    entry, so the new diagonal stays positive.  The rotations carry
    R^T z = 1 over; z's last entry, past the new R, goes."""
    del R[i]
    for c in range(i, len(R)):
        col = R[c]
        a, b = col[c], col.pop()
        h = math.hypot(a, b)
        cs, sn = a / h, b / h
        col[c] = h
        for later in (*R[c + 1:], z):
            u, v = later[c], later[c + 1]
            later[c], later[c + 1] = cs * u + sn * v, cs * v - sn * u
    z.pop()


_DROP_TOL = 1e-12
_GAP_TOL = 1e-10  # relative duality gap at which the point counts as optimal
# x_j < -ROUND_TOL marks the minimal minimizer, x_j < ROUND_TOL the maximal one;
# a gain beyond it puts an element inside or outside every minimizer
ROUND_TOL = 1e-9


def _certified(x: list[float], q: list[float]) -> bool:
    """Whether the greedy vertex q at x certifies both roundings of x as the
    minimal and the maximal minimizer (module docstring): both are prefixes of
    q's chain, so q sums to F on them, and both sums are within ``ROUND_TOL``
    of x^-(E) <= min F."""
    neg = q_lo = q_hi = 0.0
    for xj, qj in zip(x, q):
        if xj < ROUND_TOL:
            q_hi += qj
            if xj < 0.0:
                neg += xj
                if xj < -ROUND_TOL:
                    q_lo += qj
    low = neg + ROUND_TOL
    return q_lo <= low and q_hi <= low


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
    or not, as a copy's iteration order can differ from the original's.  Their
    bitmasks a and b are carried beside them, and every read is keyed.
    """
    lo, hi = f.end_gains()
    grow = {j for j, (g, wj) in enumerate(zip(lo, w), 1) if g - wj < -ROUND_TOL}
    shrink = {j for j, (g, wj) in enumerate(zip(hi, w), 1) if g - wj > ROUND_TOL}
    A, B = frozenset(), f.ground.full
    a, b = 0, (1 << f.ground.n) - 1
    while grow or shrink:
        if grow & shrink:
            return frozenset(), f.ground.full
        A, B = A | grow, B - shrink
        a, b = a | mask_of(grow), b & ~mask_of(shrink)
        if grow:
            fA = f.at(a, A)
        if shrink:
            fB = f.at(b, B)
        free = sorted(B - A)
        grow = grow and {j for j in free if f.flip(A, a, j) - fA - w[j - 1] < -ROUND_TOL}
        shrink = shrink and {j for j in free if fB - f.flip(B, b, j) - w[j - 1] > ROUND_TOL}
    return A, B


def min_norm_point(f: SetFunctionOracle, w) -> tuple[frozenset, float, frozenset]:
    """Minimize f - w exactly; f must be submodular and 0 at the empty set.

    Narrows the minimizers to a lattice [A, B] (``_minimizer_lattice``), then
    runs Wolfe's major/minor cycle on F: S -> f(A | S) - f(A) - w(S) over
    E = B - A, m = |E|, on float lists (module docstring); none if A = B,
    the one minimizer, returned as both X and Y.
    Each major cycle makes the greedy vertex q at the iterate x and stops,
    in this order: if q sums to at most x^-(E) + ``ROUND_TOL`` on both
    {x < -ROUND_TOL} and {x < ROUND_TOL} (prefixes of q's chain, so q sums
    to F there, while x^-(E) <= min F as x lies in F's base polytope, which
    needs f submodular); if the gap x.x - x.q is within a relative 1e-10,
    as for a q already in the corral; if the factor refuses q as in the
    corral's affine hull, where its gap is 0 but for rounding; ``RuntimeError``
    after 100 m^2 major cycles.  A minor cycle runs until a pass accepts
    (module docstring, also on a tie of f - w along a whole chain).
    Returns ``(X, f(X) - w(X), Y)`` where X = A | {j : x_j < -ROUND_TOL} is
    the minimal and Y = A | {j : x_j < ROUND_TOL} the maximal minimizer,
    and w(X) is ``set_sum`` in X's order over ``element_indexed(w)``; the
    lattice reads the unpadded list by ``j - 1``.  ``ValueError`` if w
    holds a string, a bool or a value that is not finite, or if
    |f(empty)| > ``FLOAT_TOL``.
    """
    n = f.ground.n
    weights = real_array(w, "weights", (n,)).tolist()
    fm = memoized(f)
    if not abs(f0 := fm.at(0, frozenset())) <= FLOAT_TOL:  # also rejects NaN
        raise ValueError(f"f must be normalized: value at empty set is {f0!r}")
    A, B = _minimizer_lattice(fm, weights)
    X = Y = A  # A = B: the lattice settles the SFM
    if A != B:
        E = sorted(B - A)
        m = len(E)
        wE = [weights[j - 1] for j in E]
        x = greedy_base_vertex(fm, [0.0] * m, wE, A, E)
        xx = _dot(x, x)
        # the corral, its squared norms, x's weights and the corral's factor (``_append``)
        S, norms, lam, R, z = [x], [xx], [1.0], [], []
        _append(R, z, [], x, xx)

        for _ in range(100 * m * m):
            q = greedy_base_vertex(fm, x, wE, A, E)
            if _certified(x, q):
                break
            xx, qq = _dot(x, x), _dot(q, q)
            corr = max(1.0, xx, qq, max(norms))
            gap = xx - _dot(x, q)
            if gap <= _GAP_TOL * corr:
                break
            if not _append(R, z, S, q, qq):
                break  # q in the affine hull of S: its gap is 0 but for rounding
            S.append(q)
            norms.append(qq)
            lam.append(0.0)

            while True:  # each pass that does not accept drops a vertex
                coeffs = _affine_weights(R, z)
                if min(coeffs) >= -_DROP_TOL:
                    x, lam = _combination(coeffs, S), [max(c, 0.0) for c in coeffs]
                    break
                # step toward the affine minimizer until the first coefficient hits zero
                theta = min(a / (a - c) for a, c in zip(lam, coeffs) if c < -_DROP_TOL)
                lam = [(1.0 - theta) * a + theta * c for a, c in zip(lam, coeffs)]
                keep = [a > _DROP_TOL for a in lam]
                for i in range(len(keep) - 1, -1, -1):
                    if not keep[i]:
                        _drop(R, z, i)
                S, norms, lam = _kept(S, keep), _kept(norms, keep), _kept(lam, keep)
                total = 0.0
                for a in lam:
                    total += a
                lam = [a / total for a in lam]
        else:
            raise RuntimeError(f"min-norm point did not converge (gap={gap:.3e})")

        X = A | frozenset([j for j, v in zip(E, x) if v < -ROUND_TOL])
        Y = A | frozenset([j for j, v in zip(E, x) if v < ROUND_TOL])
    return X, fm.at(mask_of(X), X) - set_sum(element_indexed(weights), X), Y
