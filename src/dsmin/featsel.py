"""Feature selection by mutual information with submodular feature costs.

Selecting features A to explain a class C is a trade-off between the
relevance I(X_A; C) = H(X_A) - H(X_A | C) and the cost of A.  Minimizing
``cost(A) + H(X_A | C) - H(X_A)`` is a difference of two submodular
functions only with unsmoothed entropies (alpha = 0); the default alpha = 1
can break submodularity on either side, and the solvers in
:mod:`dsmin.solvers` then run on modular bounds that are not bounds.  The
greedy baselines here add one feature at a time.

Entropies are empirical plug-in estimates in bits.  Each query packs the
rows' values on A into one int64 code per row (mixed radix over the sorted
columns, first column most significant), sorts the codes and counts runs.
The codes sort in the lexicographic order of the rows, so the counts, and
every entropy, come out exactly as a sort of the rows would give them.
The conditional entropy can be taken jointly ("non_factored") or as a
per-feature sum ("factored", the class-conditional independence shortcut);
the factored sum over-counts shared class-conditional information, which is
exactly what makes the corresponding greedy weak on redundant features.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import (EQ_TOL, GroundSet, SetFunctionOracle, best_flip, memoized, nonnegative,
                   set_sum, whole)
from .solvers import DSInstance, OptimizationTrace, TracePoint


@dataclass
class Dataset:
    """Categorical feature matrix with class labels.

    ``rows[i, j - 1]`` is the value of feature j in sample i; values of
    feature j are integers in ``0..arity[j-1]-1``.  Values that are negative,
    not whole or not below 2^63 - 1 (so that the arity fits int64) are
    rejected, and float or uint64 rows are stored as int64.  ``rows`` is a
    private column-major copy (each feature contiguous in ``rows.T``) and
    ``labels`` a private copy.  Entropy queries are memoized on the dataset.
    """

    rows: np.ndarray
    labels: np.ndarray

    ground: GroundSet = field(init=False, repr=False)
    arity: np.ndarray = field(init=False)
    classes: np.ndarray = field(init=False)
    _class_rows: list[np.ndarray] = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.rows = np.asarray(self.rows)
        self.labels = np.array(self.labels)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise ValueError("dataset needs a non-empty 2-D row matrix")
        if self.rows.shape[1] == 0:
            raise ValueError("dataset has no features: every row is empty")
        if len(self.labels) != self.rows.shape[0]:
            raise ValueError("one label per row required")
        cast = not np.can_cast(self.rows.dtype, np.int64)
        if cast:
            whole = (np.isfinite(self.rows) & (self.rows == np.floor(self.rows))).all(axis=0)
            if not whole.all():
                raise ValueError(f"feature {np.argmin(whole) + 1} holds a non-integer value")
        # range checks come before the cast, which would wrap what they reject
        if self.rows.min() < 0:
            j = int(np.argmin(self.rows.min(axis=0)))
            raise ValueError(f"feature {j + 1} holds a negative value {self.rows.min()}")
        top = self.rows.max(axis=0)
        if int(top.max()) >= 2 ** 63 - 1:
            j = int(np.argmax(top))
            raise ValueError(f"feature {j + 1} holds a value {top[j]} that is too large "
                             "(values must lie below 2^63 - 1)")
        self.rows = np.array(self.rows, dtype=np.int64 if cast else None, order="F")
        self.arity = top.astype(np.int64) + 1
        self.classes, inv = np.unique(self.labels, return_inverse=True)
        self._class_rows = [np.where(inv == c)[0] for c in range(len(self.classes))]
        self.ground = GroundSet(self.n_features)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]


def parse_sparse_dataset(path: str) -> Dataset:
    """Read a sparse "label idx:val idx:val ..." (libsvm) text file.

    Labels are whole numbers, indices 1-based and strictly increasing per
    line, values binary; absent indices are 0.  There are as many features
    as the largest index on any line.  Malformed lines are reported by number.
    """
    labels: list[int] = []
    row_indices: list[list[int]] = []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            try:
                label = whole(float(parts[0]), "label")
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad label {parts[0]!r}, not a whole number")
            on: list[int] = []
            prev = 0
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad entry {tok!r}")
                if idx <= prev:
                    raise ValueError(
                        f"{path}:{lineno}: indices must be 1-based strictly increasing")
                if val not in (0.0, 1.0):
                    raise ValueError(f"{path}:{lineno}: values must be binary, got {val}")
                if val == 1.0:
                    on.append(idx)
                prev = idx
            max_idx = max(max_idx, prev)
            labels.append(label)
            row_indices.append(on)
    if not labels:
        raise ValueError(f"{path}: no data lines")
    rows = np.zeros((len(labels), max_idx), dtype=np.int8)
    for i, on in enumerate(row_indices):
        for idx in on:
            rows[i, idx - 1] = 1
    return Dataset(rows, np.asarray(labels))


def _entropy_from_counts(counts: np.ndarray, alpha: float, m: int) -> float:
    """Entropy of the counts of m samples, with ``alpha`` pseudo-counts."""
    if alpha == 0.0:
        p = counts / m
        return float(-(p * np.log2(p)).sum()) + 0.0
    # pseudo-count on each observed configuration plus one pooled unseen cell
    total = m + alpha * (len(counts) + 1)
    p = (counts + alpha) / total
    h = -(p * np.log2(p)).sum()
    q = alpha / total
    return float(h - q * math.log2(q))


def _run_lengths(code: np.ndarray) -> np.ndarray:
    """``np.unique(code, return_counts=True)[1]``; sorts ``code`` in place."""
    code.sort()
    edge = np.empty(len(code) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(code[1:], code[:-1], out=edge[1:-1])
    start = edge.nonzero()[0]
    return start[1:] - start[:-1]


def _row_codes(ds: Dataset, A: frozenset) -> np.ndarray:
    """The int64 code of each row's values on A, as the module docstring says.

    Once the product of the arities reaches 2^63 the code is built column by
    column and replaced by its rank among its distinct values before it
    would overflow, which keeps it exact and its order unchanged.
    """
    cols = sorted(j - 1 for j in A)
    arity = ds.arity[cols].tolist()
    if math.prod(arity) < 2 ** 63:
        place, radix = [], 1
        for a in reversed(arity):
            place.append(radix)
            radix *= a
        return np.array(place[::-1], dtype=np.int64) @ ds.rows.T[cols]
    code = np.zeros(ds.n_rows, dtype=np.int64)
    radix = 1
    for c, a in zip(cols, arity):
        if radix * a >= 2 ** 63:
            distinct, code = np.unique(code, return_inverse=True)
            radix = len(distinct)
        code = code * a + ds.rows.T[c]
        radix *= a
    return code


def empirical_entropy(ds: Dataset, A: Iterable[int], alpha: float = 0.0) -> float:
    """Plug-in joint entropy (bits) of the features A, H of the empty set is 0."""
    alpha = nonnegative(alpha, "smoothing")
    A = ds.ground.check_subset(A)
    if not A:
        return 0.0
    key = ("joint", A, alpha)
    hit = ds._cache.get(key)
    if hit is None:
        hit = ds._cache[key] = _entropy_from_counts(
            _run_lengths(_row_codes(ds, A)), alpha, ds.n_rows)
    return hit


def conditional_entropy(ds: Dataset, A: Iterable[int], alpha: float = 0.0) -> float:
    """Class-weighted plug-in entropy H(X_A | C) in bits."""
    alpha = nonnegative(alpha, "smoothing")
    A = ds.ground.check_subset(A)
    if not A:
        return 0.0
    key = ("cond", A, alpha)
    hit = ds._cache.get(key)
    if hit is not None:
        return hit
    code = _row_codes(ds, A)
    m = ds.n_rows
    total = 0.0
    for idx in ds._class_rows:
        total += (len(idx) / m) * _entropy_from_counts(_run_lengths(code[idx]), alpha, len(idx))
    ds._cache[key] = total
    return total


@dataclass(frozen=True)
class CostModel:
    """Feature-cost model: plain per-feature rate or square-root block costs."""

    kind: str                      # modular_cardinality | partition_sqrt
    lam: float
    blocks: tuple[frozenset, ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("modular_cardinality", "partition_sqrt"):
            raise ValueError(f"unknown cost model {self.kind!r}")
        object.__setattr__(self, "lam", nonnegative(self.lam, "cost trade-off lambda"))
        if self.kind == "partition_sqrt":
            if not self.blocks or self.weights is None:
                raise ValueError("partition_sqrt needs blocks and per-feature weights")
            seen: set[int] = set()
            for b in self.blocks:
                if seen & b:
                    raise ValueError("cost blocks must be disjoint")
                seen |= b
            try:
                weights = tuple(nonnegative(w, "cost weight") for w in self.weights)
            except ValueError:
                raise ValueError("cost weights must be finite and non-negative") from None
            object.__setattr__(self, "weights", weights)

    @staticmethod
    def modular_cardinality(lam: float) -> "CostModel":
        return CostModel("modular_cardinality", lam)

    @staticmethod
    def partition_sqrt(blocks, weights, lam: float) -> "CostModel":
        return CostModel("partition_sqrt", lam,
                         tuple(frozenset(b) for b in blocks), tuple(weights))


def evaluate_cost(cm: CostModel, A: Iterable[int]) -> float:
    """Cost of the feature set A, already scaled by the trade-off rate."""
    A = frozenset(A)
    if cm.kind == "modular_cardinality":
        return cm.lam * len(A)
    total = 0.0
    covered = 0
    for b in cm.blocks:
        hit = A & b
        covered += len(hit)
        if hit:
            total += math.sqrt(set_sum(cm.weights, hit))
    if covered != len(A):
        raise ValueError("feature set contains elements outside all cost blocks")
    return cm.lam * total


@dataclass
class FeatSelObjective:
    """DS form of the regularized selection problem.

    ``instance.value(A) = [H(X_A | C) + cost(A)] - H(X_A)``; minimizing it
    maximizes relevance minus cost.  The conditional entropy follows the
    chosen mode.
    """

    instance: DSInstance

    def value(self, A: Iterable[int]) -> float:
        return self.instance.value(frozenset(A))


def build_objective(ds: Dataset, cost: CostModel, alpha: float = 1.0,
                    mode: str = "non_factored") -> FeatSelObjective:
    """``[H(X_A | C) + cost(A)] - H(X_A)``; both sides are submodular only at alpha = 0."""
    if mode not in ("factored", "non_factored"):
        raise ValueError(f"mode must be factored or non_factored, got {mode!r}")
    ground = ds.ground
    if cost.kind == "partition_sqrt":
        union = frozenset().union(*cost.blocks)
        if union != ground.full:
            raise ValueError("cost blocks must cover every feature")
        if len(cost.weights) != ground.n:
            raise ValueError(f"{len(cost.weights)} cost weights for {ground.n} features")

    if mode == "non_factored":
        def f_fn(S):
            return conditional_entropy(ds, S, alpha) + evaluate_cost(cost, S)
    else:
        per_feature = [conditional_entropy(ds, frozenset({j}), alpha)
                       for j in ground.elements()]

        def f_fn(S):
            return set_sum(per_feature, S) + evaluate_cost(cost, S)

    f = memoized(SetFunctionOracle(ground, f_fn, name=f"cond_entropy_{mode}_plus_cost"))
    g = memoized(SetFunctionOracle(ground, lambda S: empirical_entropy(ds, S, alpha),
                                   name="joint_entropy"))
    return FeatSelObjective(DSInstance(f, g))


def greedy_select(ds: Dataset, cost: CostModel, mode: str, budget: int | None = None,
                  alpha: float = 1.0) -> tuple[frozenset, OptimizationTrace]:
    """Forward greedy on the selection objective.

    ``GrF`` scores candidates with the factored conditional entropy, ``GrNF``
    with the joint one.  Adds the feature that lowers the objective most, by
    more than ``EQ_TOL`` and ties to the lower index; stops at the budget or
    when no candidate helps.
    """
    tag = mode.lower()
    if tag not in ("grf", "grnf"):
        raise ValueError(f"mode must be GrF or GrNF, got {mode!r}")
    budget = ds.n_features if budget is None else whole(budget, "budget", 0)
    obj = build_objective(ds, cost, alpha,
                          "factored" if tag == "grf" else "non_factored")
    t0 = time.perf_counter()

    def calls():
        return obj.instance.f.call_count + obj.instance.g.call_count

    S: frozenset = frozenset()
    trace = OptimizationTrace(f"greedy_{tag}", 0, 0.0)
    trace.iterates.append(TracePoint(S, obj.value(S), calls(), time.perf_counter() - t0))
    while len(S) < budget and (T := best_flip(obj.value, S, ds.ground, EQ_TOL,
                                              lambda T: len(T) > len(S))) is not None:
        S = T
        trace.iterates.append(TracePoint(S, obj.value(S), calls(), time.perf_counter() - t0))
    trace.termination = "converged"
    trace.oracle_calls, trace.elapsed = calls(), time.perf_counter() - t0
    return S, trace


def naive_bayes_cv(ds: Dataset, A: Iterable[int], folds: int = 10,
                   alpha: float = 1.0, seed: int = 0) -> float:
    """Mean stratified cross-validation accuracy of a categorical naive Bayes.

    Laplace smoothing ``alpha`` on both class priors and per-feature
    likelihoods; fold assignment is stratified by class and deterministic
    in the seed.  Prediction ties go to the lower class value.
    """
    alpha = nonnegative(alpha, "smoothing")
    A = ds.ground.check_subset(A)
    folds = whole(folds, "folds", 2)
    if not A:
        raise ValueError("feature set must be non-empty")
    cols = sorted(j - 1 for j in A)
    X = ds.rows[:, cols].astype(np.int64)
    _, y = np.unique(ds.labels, return_inverse=True)
    n_classes = len(ds.classes)
    arity = ds.arity[cols]
    m = ds.n_rows

    rng = np.random.default_rng(seed)
    fold_of = np.empty(m, dtype=np.int64)
    for c in range(n_classes):
        idx = np.where(y == c)[0]
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % folds

    accuracies = []
    with np.errstate(divide="ignore"):
        for k in range(folds):
            train = fold_of != k
            test = ~train
            if not np.any(test):
                continue
            ytr, Xtr = y[train], X[train]
            n_train = len(ytr)
            class_counts = np.bincount(ytr, minlength=n_classes).astype(float)
            log_prior = np.log((class_counts + alpha) / (n_train + alpha * n_classes))
            scores = np.tile(log_prior, (int(test.sum()), 1))
            Xte = X[test]
            for col in range(len(cols)):
                a = int(arity[col])
                counts = np.zeros((n_classes, a))
                np.add.at(counts, (ytr, Xtr[:, col]), 1.0)
                loglik = np.log((counts + alpha) /
                                (class_counts[:, None] + alpha * a))
                loglik[np.isnan(loglik)] = 0.0  # empty class with alpha 0
                scores += loglik[:, Xte[:, col]].T
            pred = np.argmax(scores, axis=1)
            accuracies.append(float(np.mean(pred == y[test])))
    return float(np.mean(accuracies))
