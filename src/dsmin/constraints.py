"""Combinatorial constraints and exact constrained minimization of modular functions.

A modular (affine) function is trivially minimized under each supported
constraint family: pick negatives, pick k smallest, per-block selection,
minimum spanning tree (Kruskal), or a pseudo-polynomial knapsack dynamic
program over integer costs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .core import AffineModular, whole

_READS = {"none": (), "cardinality_le": ("k",), "cardinality_eq": ("k",),
          "partition_matroid": ("blocks", "quotas"), "spanning_tree": ("n_vertices", "edges"),
          "knapsack": ("costs", "budget")}


@dataclass(frozen=True)
class Constraint:
    """Feasible-set description for constrained solvers.

    ``spanning_tree`` identifies ground element ``i`` with ``edges[i-1]``
    of a connected graph on ``n_vertices`` vertices; feasible sets are
    exactly the spanning trees.  ``partition_matroid`` uses independence
    semantics: at most ``quotas[b]`` elements from ``blocks[b]``.

    When made, a constraint checks all that needs no n: a known kind with just
    its fields; whole k, quotas, costs, budget >= 0 and block elements; disjoint
    blocks, one quota each; a connected graph on 1..n_vertices.  ``validate(n)``
    checks the rest: k <= n, blocks covering 1..n, one edge or cost per element.
    """

    kind: str = "none"
    k: int | None = None
    blocks: tuple[frozenset, ...] | None = None
    quotas: tuple[int, ...] | None = None
    n_vertices: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    costs: tuple[int, ...] | None = None
    budget: int | None = None

    def __post_init__(self):
        if self.kind not in _READS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        for f in fields(self)[1:]:
            given = getattr(self, f.name) is not None
            if given != (f.name in _READS[self.kind]):
                raise ValueError(f"a {self.kind} constraint "
                                 f"{'takes no' if given else 'needs'} {f.name!r}")
        put = functools.partial(object.__setattr__, self)
        if self.k is not None:
            put("k", whole(self.k, "cardinality bound", 0))
        if self.blocks is not None:
            put("blocks", tuple(frozenset(whole(i, "partition element") for i in b)
                                for b in self.blocks))
            put("quotas", tuple(whole(q, "partition quota", 0) for q in self.quotas))
            if len(self.quotas) != len(self.blocks):
                raise ValueError("partition matroid needs matching blocks and quotas")
            if sum(map(len, self.blocks)) != len(frozenset().union(*self.blocks)):
                raise ValueError("partition blocks must be disjoint")
        if self.edges is not None:
            put("n_vertices", whole(self.n_vertices, "vertex count"))
            put("edges", tuple(tuple(whole(x, "graph edge endpoint") for x in (u, v))
                               for u, v in self.edges))
            if len(self.edges) < self.n_vertices - 1:  # spares a union-find that size
                raise ValueError("spanning tree constraint requires a connected graph")
            comp = _UnionFind(self.n_vertices)
            for u, v in self.edges:
                if u == v or min(u, v) < 1 or max(u, v) > self.n_vertices:
                    raise ValueError(f"bad graph edge ({u}, {v})")
                comp.union(u - 1, v - 1)
            if comp.n_components != 1:
                raise ValueError("spanning tree constraint requires a connected graph")
        if self.costs is not None:
            put("costs", tuple(whole(c, "knapsack cost", 0) for c in self.costs))
            put("budget", whole(self.budget, "knapsack budget", 0))

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def none() -> "Constraint":
        return Constraint("none")

    @staticmethod
    def cardinality_le(k: int) -> "Constraint":
        return Constraint("cardinality_le", k=k)

    @staticmethod
    def cardinality_eq(k: int) -> "Constraint":
        return Constraint("cardinality_eq", k=k)

    @staticmethod
    def partition_matroid(blocks, quotas) -> "Constraint":
        return Constraint("partition_matroid", blocks=blocks, quotas=quotas)

    @staticmethod
    def spanning_tree(n_vertices: int, edges) -> "Constraint":
        return Constraint("spanning_tree", n_vertices=n_vertices, edges=edges)

    @staticmethod
    def knapsack(costs, budget) -> "Constraint":
        return Constraint("knapsack", costs=costs, budget=budget)

    @staticmethod
    def from_dict(d: dict) -> "Constraint":
        """The constraint a JSON object describes; an unknown key raises TypeError."""
        return Constraint(**{"kind": "none", **d})

    # -- validation and feasibility --------------------------------------------

    def validate(self, n: int) -> None:
        """Check that the constraint fits a ground set of n elements."""
        if self.k is not None and self.k > n:
            raise ValueError(f"cardinality bound must lie in 0..{n}, got {self.k!r}")
        if self.blocks is not None and frozenset().union(*self.blocks) != set(range(1, n + 1)):
            raise ValueError("partition blocks must cover 1..n")
        if self.edges is not None and len(self.edges) != n:
            raise ValueError("spanning tree needs one graph edge per ground element")
        if self.costs is not None and len(self.costs) != n:
            raise ValueError("knapsack needs one cost per ground element")

    def is_feasible(self, X: Iterable[int]) -> bool:
        S = frozenset(X)
        if self.kind == "none":
            return True
        if self.kind == "cardinality_le":
            return len(S) <= self.k
        if self.kind == "cardinality_eq":
            return len(S) == self.k
        if self.kind == "partition_matroid":
            return all(len(S & b) <= q for b, q in zip(self.blocks, self.quotas))
        if self.kind == "spanning_tree":  # n_vertices - 1 edges without a cycle
            uf = _UnionFind(self.n_vertices)
            return len(S) == self.n_vertices - 1 and all(
                uf.union(*(x - 1 for x in self.edges[i - 1])) for i in S)
        return sum(self.costs[i - 1] for i in S) <= self.budget


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.n_components = n

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.n_components -= 1
        return True


def _kruskal(constraint: Constraint, weights: np.ndarray) -> frozenset:
    order = sorted(range(1, len(weights) + 1), key=lambda i: (weights[i - 1], i))
    uf = _UnionFind(constraint.n_vertices)
    chosen = []
    for i in order:
        u, v = constraint.edges[i - 1]
        if uf.union(u - 1, v - 1):
            chosen.append(i)
            if len(chosen) == constraint.n_vertices - 1:
                break
    return frozenset(chosen)


def _knapsack_min(weights: np.ndarray, costs, budget: int) -> frozenset:
    """Exact min-weight selection under a cost budget (0/1 DP over budget)."""
    items = [i for i in range(1, len(weights) + 1)
             if weights[i - 1] < 0.0 and costs[i - 1] <= budget]
    if not items:
        return frozenset()
    m = len(items)
    dp = np.zeros((m + 1, budget + 1))
    for r, i in enumerate(items, start=1):
        c, w = costs[i - 1], weights[i - 1]
        dp[r] = dp[r - 1]
        feas = np.arange(c, budget + 1)
        cand = dp[r - 1][feas - c] + w
        better = cand < dp[r][feas]
        dp[r][feas[better]] = cand[better]
    chosen = []
    b = budget
    for r in range(m, 0, -1):
        if dp[r][b] != dp[r - 1][b]:
            i = items[r - 1]
            chosen.append(i)
            b -= costs[i - 1]
    return frozenset(chosen)


def _lightest(w: np.ndarray, items: Iterable[int], k: int | None) -> list[int]:
    """Without k, items as a list in their given order; with k, the k lightest
    of them by (w, i).  The minimizers build each frozenset from this list,
    whose order fixes the frozenset's iteration order and so its set sums."""
    return list(items) if k is None else sorted(items, key=lambda i: (w[i - 1], i))[:k]


def modular_minimize_constrained(m: AffineModular, constraint: Constraint) -> frozenset:
    """Exactly minimize an affine-modular function over a constraint family.

    Deterministic tie-breaking throughout: by index for equal weights.
    """
    w, kind = m.weights, constraint.kind
    constraint.validate(len(w))
    if kind in ("none", "cardinality_le"):
        negative = (np.flatnonzero(w < 0.0) + 1).tolist()
        return frozenset(_lightest(w, negative, None if kind == "none" else constraint.k))
    if kind == "cardinality_eq":
        return frozenset(_lightest(w, range(1, len(w) + 1), constraint.k))
    if kind == "partition_matroid":
        return frozenset(j for b, q in zip(constraint.blocks, constraint.quotas)
                         for j in _lightest(w, [i for i in b if w[i - 1] < 0.0], q))
    if kind == "spanning_tree":
        return _kruskal(constraint, w)
    return _knapsack_min(w, constraint.costs, constraint.budget)


def modular_maximal_minimizer(m: AffineModular, constraint: Constraint) -> frozenset | None:
    """Largest minimizer of the modular surrogate, where cheaply available.

    For the unconstrained case this adds the zero-weight elements; under a
    cardinality cap it pads the negative selection with zero-weight
    elements up to the cap.  Other constraint kinds return ``None``.
    """
    w, kind = m.weights, constraint.kind
    if kind not in ("none", "cardinality_le"):
        return None
    nonpositive = (np.flatnonzero(w <= 0.0) + 1).tolist()
    return frozenset(_lightest(w, nonpositive, None if kind == "none" else constraint.k))
