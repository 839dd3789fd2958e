"""Ground sets, set-function oracles, and exhaustive reference tools.

Elements of a ground set are the integers ``1..n`` and subsets are plain
``frozenset`` values.  Whenever a tie has to be broken between subsets, the
canonical order is: smaller cardinality first, then lexicographically
smaller sorted index tuple.  Bitmask representations put element ``j`` on
bit ``j - 1``: the exhaustive helpers index value tables by them, and a memo
keys every value by one.  Its keyed reads (``MemoizedOracle.at``, ``flip``
and ``chain_gains``) look sets up by them, so a chain or a flip scan builds a
set only where the memo misses.  Brute force reads the full value table, so
like every table it refuses n > 20.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# Absolute tolerance for all floating >= / <= checks unless overridden.
FLOAT_TOL = 1e-9
EQ_TOL = 1e-12  # two objective values within this are treated as equal


@dataclass(frozen=True)
class GroundSet:
    """The index set {1, ..., n}."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", whole(self.n, "ground set size", 1))

    def elements(self) -> range:
        return range(1, self.n + 1)

    @property
    def full(self) -> frozenset:
        return frozenset(self.elements())

    @functools.cached_property
    def _bits(self) -> dict[int, int]:  # by element j, 1 << (j - 1), for every memo over it
        return {j: 1 << (j - 1) for j in self.elements()}

    def check_subset(self, X: Iterable[int]) -> frozenset:
        S = element_set(X)
        for j in S:
            if type(j) is not int or not 1 <= j <= self.n:
                raise ValueError(f"element {j} outside ground set 1..{self.n}")
        return S


def whole(x, what: str, low: int | None = None) -> int:
    """x as an int; ValueError naming ``what`` unless a finite whole real number,
    and not below ``low`` if given."""
    if type(x) is not int:  # most sizes and endpoints are: skip the slower checks
        if (isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x)
                or float(x) != int(x)):
            raise ValueError(f"{what} must be an integer, got {x!r}")
        x = int(x)
    if low is not None and x < low:
        raise ValueError(f"{what} must be >= {low}, got {x!r}")
    return x


def element_set(X: Iterable[int]) -> frozenset:
    """X as a frozenset whose whole numbers are ints: 2.0 and numpy integers count.
    A fraction or NaN stays as it is, for the caller's range test to name; a bool
    or a non-number raises ``ValueError`` naming it."""
    return frozenset(j if type(j) is int else _element(j) for j in X)


def _element(j):
    if isinstance(j, bool) or not isinstance(j, numbers.Real):
        raise ValueError(f"element must be an integer, got {j!r}")
    return int(j) if math.isfinite(j) and j == int(j) else j


def nonnegative(x, what: str) -> float:
    """x as a float; ValueError naming ``what`` unless a finite real number >= 0.

    bool and str are not real numbers here."""
    if type(x) is float and 0.0 <= x < math.inf:  # most calls: skip the rest
        return x
    if not isinstance(x, bool) and isinstance(x, numbers.Real):
        try:
            y = float(x)
        except OverflowError:  # an int past the float range
            y = math.inf
        if 0.0 <= y < math.inf:  # also rejects NaN
            return y
    raise ValueError(f"{what} must be finite and >= 0, got {x!r}")


def real_array(x, what: str, shape: tuple | None = None) -> np.ndarray:
    """x as a new float array, of ``shape`` if given; ValueError naming ``what``
    if an entry is a string, a bool or any other object that is not a real
    number, if the shape differs, or naming the first entry that is not finite."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64):  # as the bounds give
        x = np.asarray(x, dtype=object)
        if not set(map(type, x.flat)) <= {float, int}:  # JSON numbers pass at once
            for v in x.flat:
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise ValueError(f"{what!r} must hold real numbers, got {v!r}")
    a = np.array(x, dtype=float)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{what!r} must have shape {shape}, got {a.shape}")
    if not (finite := np.isfinite(a)).all():
        at = np.unravel_index(np.argmin(finite), a.shape)
        raise ValueError(f"{what!r} must be finite: entry {list(map(int, at))} is {float(a[at])!r}")
    return a


def subset_key(X: Iterable[int]) -> tuple:
    """Canonical sort key: cardinality first, then sorted indices."""
    t = tuple(sorted(X))
    return (len(t), t)


def best_flip(v, X: frozenset, tol: float = 0.0,
              feasible: Callable[[frozenset], bool] | None = None,
              w: list[float] | None = None, sign: float = 1.0) -> frozenset | None:
    """The flip of X lowest under sign * v + w below sign * v(X) - tol, ties to
    the lower element, or None; w is a weight list indexed by ``j - 1``, no w
    is zero.

    v is read by the keyed reads ``at`` and ``flip``: a memo (``memoized``) or
    a solve's f - g, and the flips run over v's own ground set, ``v.ground``.
    A flip X + j scores sign * v(X + j) + w_j and X - j scores
    sign * v(X - j) - w_j, so w is never summed over a set.  Flips that
    ``feasible`` rejects are skipped before v is evaluated; without
    ``feasible`` a flip's set is built only where v misses, and for the
    flip returned."""
    key = mask_of(X)
    best_val, best = sign * v.at(key, X) - tol, 0
    for j in v.ground.elements():
        if feasible is None:
            val = v.flip(X, key, j)
        else:
            T = X - {j} if j in X else X | {j}
            if not feasible(T):
                continue
            val = v.at(key ^ (1 << (j - 1)), T)
        val *= sign
        if w is not None:
            val = val - w[j - 1] if j in X else val + w[j - 1]
        if val < best_val:
            best_val, best = val, j
    return (X - {best} if best in X else X | {best}) if best else None


def mask_of(X: Iterable[int]) -> int:
    m = 0
    for j in X:
        m |= 1 << (j - 1)
    return m


def set_of(mask: int, n: int) -> frozenset:
    return frozenset(j for j in range(1, n + 1) if mask >> (j - 1) & 1)


class SetFunctionOracle:
    """A real-valued set function with an evaluation counter.

    The wrapped callable must be deterministic.  ``call_count`` increments
    once per evaluation through this oracle; memoizing variants only count
    distinct evaluations, and an evaluation through a memo over this oracle
    leaves this count where it is.  A frozenset is trusted to be a subset of
    the ground set, unchecked; any other iterable is checked.
    """

    def __init__(self, ground: GroundSet, fn: Callable[[frozenset], float], name: str = "f"):
        self.ground = ground
        self.name = name
        self.call_count = 0
        self._fn = fn

    def __call__(self, X: Iterable[int]) -> float:
        S = X if isinstance(X, frozenset) else self.ground.check_subset(X)
        self.call_count += 1
        val = self._fn(S)
        return val if type(val) is float else float(val)

    def __repr__(self):
        return f"SetFunctionOracle({self.name}, n={self.ground.n}, calls={self.call_count})"


class MemoizedOracle(SetFunctionOracle):
    """Caching view of another oracle; ``call_count`` counts cache misses only
    and ``lookups`` every read, hit or miss, a chain one per prefix.

    A miss calls the viewed oracle's function directly, so the viewed
    oracle's own ``call_count`` does not move.  Every value it computes must
    be finite; a NaN or an infinity raises ``ValueError`` naming the set.

    Every value is kept under its set's bitmask (``mask_of``): ``at`` reads a
    set whose mask is known, ``flip`` a one-element change of a set and
    ``chain_gains`` a chain, and each builds a set only on a miss, the object
    a caller of ``__call__`` would build in its place, so every sum over it
    runs in the same order.  A call reads the mask from the ground set's table
    of bits, where whole floats and numpy integers find their ints and an
    element outside 1..n raises ``check_subset``'s ``ValueError``.  Each set is
    evaluated once, as the first read to reach it built it.
    """

    def __init__(self, inner: SetFunctionOracle):
        super().__init__(inner.ground, inner._fn, inner.name)
        self._cache: dict[int, float] = {}
        self.lookups = 0
        self._end_gains: tuple[list[float], list[float]] | None = None

    def __call__(self, X: Iterable[int]) -> float:
        S = X if isinstance(X, frozenset) else self.ground.check_subset(X)
        bits, key = self.ground._bits, 0
        try:  # distinct elements have distinct bits, so the sum is their union
            for j in S:
                key += bits[j]
        except KeyError:  # outside 1..n: check_subset names the element
            self.ground.check_subset(S)
            raise
        return self.at(key, S)

    def at(self, key: int, S: frozenset) -> float:
        """f(S), for a set S whose bitmask ``key`` is known."""
        self.lookups += 1
        hit = self._cache.get(key)
        return self._miss(key, S) if hit is None else hit

    def flip(self, X, key: int, j: int) -> float:
        """f(X - j) if j is in X, else f(X + j); ``key`` is X's bitmask.  Only a
        miss builds ``frozenset(X - {j})`` or ``frozenset(X | {j})``, so X may
        be a set or a frozenset."""
        self.lookups += 1
        bit = 1 << (j - 1)
        hit = self._cache.get(key ^ bit)
        if hit is not None:
            return hit
        return self._miss(key ^ bit, frozenset(X - {j} if key & bit else X | {j}))

    def chain_gains(self, order, base: frozenset = frozenset()) -> list[float]:
        """Telescoped gains of a normalized f along the chain base, base + order[0], ...

        Entry i holds f(prefix ending at order[i]) minus f(the prefix before
        it), starting from f(base), which is 0 without a read at the empty
        set.  Reads f once per prefix, by a running bitmask beside the running
        set; a miss evaluates ``frozenset`` of the running set.  Callers
        scatter the gains onto elements.
        """
        key = mask_of(base)
        prev = self.at(key, base) if base else 0.0
        cache, gains, running = self._cache, [], set(base)
        self.lookups += len(order)
        for j in order:
            running.add(j)
            key |= 1 << (j - 1)
            cur = cache.get(key)
            if cur is None:
                cur = self._miss(key, frozenset(running))
            gains.append(cur - prev)
            prev = cur
        return gains

    def _miss(self, key: int, S: frozenset) -> float:
        """f(S), evaluated and kept under S's bitmask ``key`` after a miss."""
        self.call_count += 1
        val = self._fn(S)
        if type(val) is not float:  # the built families return floats already
            val = float(val)
        if val - val != 0.0:  # NaN for a NaN or an infinity
            raise ValueError(f"{self.name} is not finite at {sorted(S)}: {val!r}")
        self._cache[key] = val
        return val

    def end_gains(self) -> tuple[list[float], list[float]]:
        """f({j}) - f(empty) and f(V) - f(V - j) over j = 1..n, computed once per
        memo.  Evaluates f(empty), f(V), each {j}, then each V - j."""
        if self._end_gains is None:
            full, elements = (1 << self.ground.n) - 1, self.ground.elements()
            f0, fV = self.at(0, E := frozenset()), self.at(full, V := self.ground.full)
            self._end_gains = ([self.flip(E, 0, j) - f0 for j in elements],
                               [fV - self.flip(V, full, j) for j in elements])
        return self._end_gains


def memoized(oracle: SetFunctionOracle) -> MemoizedOracle:
    """``oracle`` itself if it caches already, else a caching view of it."""
    return oracle if isinstance(oracle, MemoizedOracle) else MemoizedOracle(oracle)


def element_indexed(weights: Iterable[float]) -> list[float]:
    """``[0.0, *weights]``: element j's weight, given at ``j - 1``, at index j."""
    return [0.0, *weights]


def set_sum(weights: list[float], S: Iterable[int]) -> float:
    """The sum of ``weights[j]`` over S, added one by one from 0.0 in S's order.

    ``weights`` is element-indexed, as :func:`element_indexed` builds it:
    entry 0 is unused, so the loop does no ``j - 1``.  Lists read one element
    at a time stay indexed by ``j - 1``, as numpy arrays are: the weights of
    ``best_flip`` and the ``sfmax`` maximizers, and the SFM lattice's."""
    t = 0.0
    for j in S:
        t += weights[j]
    return t


@dataclass(frozen=True, eq=False)
class AffineModular:
    """Constant offset plus per-element weights.

    ``weights[j - 1]`` is element j's weight, as in every numpy array here.
    ``value(Y) = offset + set_sum(element_indexed(weights), Y)``; the solvers
    read the weights and never call ``value``.
    Plain floats added in Y's order are the IEEE additions of ``sum()`` over
    the float64 entries, bit for bit; ``sum()`` over floats (compensated on
    Python >= 3.12) and numpy reductions (reordered) differ in the last bits.
    Represents the tight modular lower bounds and both tight modular upper
    bounds.  It defines no arithmetic: an inner step takes a weight vector,
    such as mod-mod's upper-bound weights minus lower-bound weights.
    """

    offset: float
    weights: np.ndarray

    def value(self, Y: Iterable[int]) -> float:
        return float(self.offset + set_sum(element_indexed(self.weights.tolist()), Y))


TABLE_MAX_N = 20


def evaluate_table(f: SetFunctionOracle) -> np.ndarray:
    """Evaluate f on all subsets; entry ``m`` is f of the bitmask-``m`` set.
    A NaN or an infinity raises ``ValueError`` naming its set (the lowest mask)."""
    n = f.ground.n
    if n > TABLE_MAX_N:
        raise ValueError(f"full table refused for n={n} > {TABLE_MAX_N}")
    out = np.empty(1 << n)
    for m in range(1 << n):
        out[m] = f(set_of(m, n))
    if not np.isfinite(out).all():
        m = int(np.argmin(np.isfinite(out)))  # the lowest non-finite mask
        raise ValueError(f"{f.name} is not finite at {sorted(set_of(m, n))}: {float(out[m])!r}")
    return out


def brute_force_minimize(v: SetFunctionOracle) -> tuple[frozenset, float]:
    """Exhaustive minimization over the full table; ties go to the canonical first set."""
    vals = evaluate_table(v)
    best = vals.min()
    ties = (set_of(int(m), v.ground.n) for m in np.flatnonzero(vals == best))
    return min(ties, key=subset_key), float(best)


# The one cap on the O(n^2 2^n) pass over a value table, ``min_gain_drop``,
# run by the submodularity check and by ``bounds.ds_decompose``.
PAIRWISE_MAX_N = 16


def min_gain_drop(table: np.ndarray, n: int) -> float:
    """Smallest gain drop min over j, X strictly inside Y avoiding j.

    Per element a, over the contexts without a: m[Y] is the least gain of a
    over the subsets of Y, and a strict subset of Y lies inside some Y - b,
    so the drops m[Y - b] - gain[Y] cover every pair.  An array viewed as
    (-1, 2, 2**b) holds the masks without bit b at [:, 0], with it at [:, 1].
    """
    alpha = math.inf
    for a in range(n):
        by_a = table.reshape(-1, 2, 1 << a)
        gains = (by_a[:, 1] - by_a[:, 0]).ravel()
        m = gains.copy()
        for b in range(n - 1):
            pairs = m.reshape(-1, 2, 1 << b)
            np.minimum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
        for b in range(n - 1):
            drop = (m.reshape(-1, 2, 1 << b)[:, 0] - gains.reshape(-1, 2, 1 << b)[:, 1]).min()
            if drop < alpha:
                alpha = float(drop)
    return alpha


def check_submodular(f: SetFunctionOracle) -> bool:
    """True iff ``min_gain_drop`` of f's full table is >= -``FLOAT_TOL``: no gain
    grows by more than that from a context to a bigger one.  Refuses n > 16."""
    n = f.ground.n
    if n > PAIRWISE_MAX_N:
        raise ValueError(f"submodularity check refused for n={n} > {PAIRWISE_MAX_N}")
    return min_gain_drop(evaluate_table(f), n) >= -FLOAT_TOL
