"""Ground sets, set-function oracles, and exhaustive reference tools.

Elements of a ground set are the integers ``1..n`` and subsets are plain
``frozenset`` values.  Whenever a tie has to be broken between subsets, the
canonical order is: smaller cardinality first, then lexicographically
smaller sorted index tuple.  Bitmask representations (used by the
exhaustive helpers) put element ``j`` on bit ``j - 1``.  Brute force reads
the full value table, so like every table it refuses n > 20.
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

    def check_subset(self, X: Iterable[int]) -> frozenset:
        S = frozenset(int(j) for j in X)
        for j in S:
            if not 1 <= j <= self.n:
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


def nonnegative(x, what: str) -> float:
    """x as a float; ValueError naming ``what`` unless a finite real number >= 0.

    bool and str are not real numbers here."""
    if type(x) is float and 0.0 <= x < math.inf:  # every entropy query: skip the rest
        return x
    if not isinstance(x, bool) and isinstance(x, numbers.Real):
        try:
            y = float(x)
        except OverflowError:  # an int past the float range
            y = math.inf
        if 0.0 <= y < math.inf:  # also rejects NaN
            return y
    raise ValueError(f"{what} must be finite and >= 0, got {x!r}")


def subset_key(X: Iterable[int]) -> tuple:
    """Canonical sort key: cardinality first, then sorted indices."""
    t = tuple(sorted(X))
    return (len(t), t)


def flips(X: frozenset, ground: GroundSet) -> list[frozenset]:
    """The single-element additions and deletions at X, in element order."""
    return [X - {j} if j in X else X | {j} for j in ground.elements()]


def best_flip(v: Callable[[frozenset], float], X: frozenset, ground: GroundSet,
              tol: float = 0.0,
              feasible: Callable[[frozenset], bool] | None = None) -> frozenset | None:
    """The lowest flip of X below v(X) - tol, ties to the lower element, or None.

    Flips that ``feasible`` rejects are skipped before v is evaluated."""
    best_val, best = v(X) - tol, None
    for T in flips(X, ground):
        if feasible is not None and not feasible(T):
            continue
        val = v(T)
        if val < best_val:
            best_val, best = val, T
    return best


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
    once per evaluation; memoizing variants only count distinct evaluations.
    """

    def __init__(self, ground: GroundSet, fn: Callable[[frozenset], float], name: str = "f"):
        self.ground = ground
        self.name = name
        self.call_count = 0
        self._fn = fn

    def __call__(self, X: Iterable[int]) -> float:
        S = X if isinstance(X, frozenset) else self.ground.check_subset(X)
        self.call_count += 1
        return float(self._fn(S))

    def __repr__(self):
        return f"SetFunctionOracle({self.name}, n={self.ground.n}, calls={self.call_count})"


class MemoizedOracle(SetFunctionOracle):
    """Caching view of another oracle; ``call_count`` counts cache misses only.

    Every value it computes must be finite; a NaN or an infinity raises
    ``ValueError`` naming the set.
    """

    def __init__(self, inner: SetFunctionOracle):
        super().__init__(inner.ground, inner._fn, inner.name)
        self._cache: dict[frozenset, float] = {}

    def __call__(self, X: Iterable[int]) -> float:
        S = X if isinstance(X, frozenset) else self.ground.check_subset(X)
        hit = self._cache.get(S)
        if hit is not None:
            return hit
        self.call_count += 1
        val = float(self._fn(S))
        if not math.isfinite(val):
            raise ValueError(f"{self.name} is not finite at {sorted(S)}: {val!r}")
        self._cache[S] = val
        return val


def memoized(oracle: SetFunctionOracle) -> MemoizedOracle:
    return MemoizedOracle(oracle)


def set_sum(weights: list[float], S: Iterable[int]) -> float:
    """The sum of ``weights[j - 1]`` over S, added one by one from 0.0 in S's order."""
    t = 0.0
    for j in S:
        t += weights[j - 1]
    return t


@dataclass(frozen=True, eq=False)
class AffineModular:
    """Constant offset plus per-element weights.

    ``value(Y) = offset + set_sum(weights, Y)`` over a list copy of the
    weights made on the first ``value`` call (most bounds never make one).
    Plain floats added in Y's order are the IEEE additions of ``sum()`` over
    the float64 entries, bit for bit; ``sum()`` over floats (compensated on
    Python >= 3.12) and numpy reductions (reordered) differ in the last bits.
    Represents the tight modular lower bounds, both tight modular upper
    bounds, and every modular surrogate subproblem.
    """

    offset: float
    weights: np.ndarray

    @functools.cached_property
    def _weight_list(self) -> list[float]:
        return self.weights.tolist()

    def value(self, Y: Iterable[int]) -> float:
        return float(self.offset + set_sum(self._weight_list, Y))

    def __sub__(self, other: "AffineModular") -> "AffineModular":
        return AffineModular(self.offset - other.offset, self.weights - other.weights)


def chain_gains(f: SetFunctionOracle, order: Iterable[int],
                base: frozenset = frozenset()) -> np.ndarray:
    """Telescoped gains of a normalized f along the chain base, base + order[0], ...

    Entry ``j - 1`` holds f(prefix ending at j) minus f(the prefix before
    it), starting from f(base), which is 0 without a call at the empty set;
    entries of elements not in ``order`` are 0.  Evaluates f once per prefix.
    """
    gains = [0.0] * f.ground.n
    prev = f(base) if base else 0.0
    running = set(base)
    for j in order:
        running.add(j)
        cur = f(frozenset(running))
        gains[j - 1] = cur - prev
        prev = cur
    return np.array(gains)


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


def check_submodular(f: SetFunctionOracle, tol: float = FLOAT_TOL) -> bool:
    """True iff no gain of f grows by more than tol from a context to a bigger
    one: ``min_gain_drop`` of f's full table is >= -tol.  Refuses n > 16."""
    n = f.ground.n
    if n > PAIRWISE_MAX_N:
        raise ValueError(f"submodularity check refused for n={n} > {PAIRWISE_MAX_N}")
    return min_gain_drop(evaluate_table(f), n) >= -tol
