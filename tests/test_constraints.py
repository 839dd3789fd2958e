import itertools
from functools import partial

import networkx as nx
import numpy as np
import pytest

from dsmin import Constraint
from dsmin.constraints import modular_maximal_minimizer, modular_minimize_constrained
from dsmin.core import AffineModular

import helpers


def weights(*w):
    return AffineModular(0.0, np.array(w, dtype=float))


class TestUnconstrained:
    def test_selects_strict_negatives(self):
        assert modular_minimize_constrained(weights(-2.0, 1.0, -0.5), Constraint.none()) \
            == frozenset({1, 3})

    def test_zero_weights_excluded(self):
        assert modular_minimize_constrained(weights(0.0, -1.0), Constraint.none()) \
            == frozenset({2})


class TestCardinality:
    def test_le_takes_most_negative(self):
        m = weights(-2.0, 1.0, -0.5)
        assert modular_minimize_constrained(m, Constraint.cardinality_le(1)) == frozenset({1})

    def test_le_never_takes_positives(self):
        m = weights(-1.0, 2.0, 3.0)
        assert modular_minimize_constrained(m, Constraint.cardinality_le(3)) == frozenset({1})

    def test_eq_takes_k_smallest(self):
        m = weights(5.0, 1.0, 3.0)
        assert modular_minimize_constrained(m, Constraint.cardinality_eq(2)) == frozenset({2, 3})

    def test_bad_k(self):
        with pytest.raises(ValueError):
            modular_minimize_constrained(weights(1.0), Constraint.cardinality_le(5))


class TestMaximalMinimizer:
    def test_zero_weights_join_the_unconstrained_set(self):
        assert modular_maximal_minimizer(weights(-2.0, 0.0, 1.0, 0.0), Constraint.none()) \
            == frozenset({1, 2, 4})

    def test_cap_pads_with_zero_weights_by_index(self):
        m = weights(0.0, 1.0, 0.0, -1.0, 0.0)
        assert modular_maximal_minimizer(m, Constraint.cardinality_le(3)) == frozenset({1, 3, 4})

    def test_ties_go_to_the_lower_index(self):
        m = weights(-1.0, -2.0, -1.0, -1.0)
        assert modular_maximal_minimizer(m, Constraint.cardinality_le(2)) == frozenset({1, 2})

    @pytest.mark.parametrize("constraint", [Constraint.cardinality_eq(1),
                                            Constraint.partition_matroid([[1, 2]], [1])])
    def test_other_kinds_return_none(self, constraint):
        assert modular_maximal_minimizer(weights(-1.0, 0.0), constraint) is None


@pytest.mark.parametrize("kind,stray", [
    ("none", {"k": 1}),
    ("cardinality_le", {"k": 1, "budget": 7}),
    ("cardinality_eq", {"k": 1, "blocks": (frozenset({1}),)}),
    ("partition_matroid", {"blocks": (frozenset({1}),), "quotas": (1,), "k": 1}),
    ("spanning_tree", {"n_vertices": 2, "edges": ((1, 2),), "costs": (1,)}),
    ("knapsack", {"costs": (1,), "budget": 1, "quotas": (1,)}),
])
def test_fields_the_kind_never_reads_are_rejected(kind, stray):
    name = list(stray)[-1]
    with pytest.raises(ValueError, match=f"{kind} constraint takes no '{name}'"):
        Constraint(kind, **stray)
    del stray[name]
    Constraint(kind, **stray).validate(1)


def test_minimizers_keep_the_reference_iteration_order():
    # up to 130 elements, so the frozensets wrap their hash tables and the
    # iteration order depends on the order the elements went in
    rng = np.random.default_rng(71)
    for trial in range(120):
        n = int(rng.integers(1, 131))
        w = rng.normal(0.0, 1.0, n)
        if trial % 2:
            w = np.round(w)  # ties and zero weights
        k = int(rng.integers(0, n + 1))
        blocks = [b.tolist() for b in np.array_split(rng.permutation(n) + 1, min(n, 4))]
        quotas = [int(rng.integers(0, len(b) + 1)) for b in blocks]
        m = AffineModular(0.0, w)
        for c in (Constraint.none(), Constraint.cardinality_le(k),
                  Constraint.cardinality_eq(k), Constraint.partition_matroid(blocks, quotas)):
            got = (modular_minimize_constrained(m, c), modular_maximal_minimizer(m, c))
            want = helpers.reference_minimizers(w, c)
            assert [None if s is None else list(s) for s in got] \
                == [None if s is None else list(s) for s in want]


class TestPartitionMatroid:
    def test_example(self):
        m = weights(-2.0, 1.0, -0.5)
        c = Constraint.partition_matroid([[1, 2], [3]], [1, 1])
        assert modular_minimize_constrained(m, c) == frozenset({1, 3})

    def test_quota_limits_block(self):
        m = weights(-3.0, -2.0, -1.0)
        c = Constraint.partition_matroid([[1, 2, 3]], [2])
        assert modular_minimize_constrained(m, c) == frozenset({1, 2})

    def test_blocks_must_cover(self):
        with pytest.raises(ValueError):
            modular_minimize_constrained(weights(1.0, 2.0),
                                         Constraint.partition_matroid([[1]], [1]))

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            Constraint.partition_matroid([[1, 2], [2]], [1, 1]).validate(2)


class TestSpanningTree:
    def test_triangle(self):
        c = Constraint.spanning_tree(3, [(1, 2), (2, 3), (1, 3)])
        m = weights(1.0, 2.0, 3.0)
        assert modular_minimize_constrained(m, c) == frozenset({1, 2})

    def test_matches_networkx_on_random_graphs(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n_v = int(rng.integers(3, 7))
            edges = [(u, v) for u, v in itertools.combinations(range(1, n_v + 1), 2)]
            w = rng.uniform(-3.0, 3.0, len(edges))
            c = Constraint.spanning_tree(n_v, edges)
            got = modular_minimize_constrained(weights(*w), c)
            G = nx.Graph()
            for i, (u, v) in enumerate(edges, start=1):
                G.add_edge(u, v, weight=float(w[i - 1]), index=i)
            T = nx.minimum_spanning_tree(G, algorithm="kruskal")
            want = sum(d["weight"] for _, _, d in T.edges(data=True))
            total = sum(w[i - 1] for i in got)
            assert total == pytest.approx(want, abs=1e-9)
            assert c.is_feasible(got)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Constraint.spanning_tree(4, [(1, 2), (3, 4), (1, 2)]).validate(3)
        # too few edges for the vertex count: rejected before any per-vertex work
        with pytest.raises(ValueError, match="requires a connected graph"):
            Constraint.spanning_tree(10 ** 18, [(1, 2)])

    def test_feasibility(self):
        c = Constraint.spanning_tree(3, [(1, 2), (2, 3), (1, 3)])
        assert c.is_feasible({1, 2})
        assert not c.is_feasible({1})
        assert not c.is_feasible({1, 2, 3})


class TestKnapsack:
    def test_budget_binds(self):
        c = Constraint.knapsack([2, 2, 3], 4)
        m = weights(-1.0, -1.5, -0.4)
        assert modular_minimize_constrained(m, c) == frozenset({1, 2})

    def test_matches_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            costs = [int(c) for c in rng.integers(0, 5, n)]
            budget = int(rng.integers(0, 9))
            w = rng.uniform(-2.0, 2.0, n)
            c = Constraint.knapsack(costs, budget)
            got = modular_minimize_constrained(weights(*w), c)
            best = min(
                (sum(w[j - 1] for j in S)
                 for S in helpers.all_subsets(n)
                 if sum(costs[j - 1] for j in S) <= budget),
                default=0.0)
            assert sum(w[j - 1] for j in got) == pytest.approx(best, abs=1e-9)
            assert c.is_feasible(got)

    def test_non_integer_costs_rejected(self):
        with pytest.raises(ValueError):
            Constraint.knapsack([1.5, 2], 3)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Constraint.knapsack([1, 2], -1)


def test_constraint_from_dict():
    cases = [({"kind": "none"}, Constraint.none()),
             ({"kind": "cardinality_le", "k": 2}, Constraint.cardinality_le(2)),
             ({"kind": "cardinality_eq", "k": 1}, Constraint.cardinality_eq(1)),
             ({"kind": "partition_matroid", "blocks": [[1, 2], [3]], "quotas": [1, 1]},
              Constraint.partition_matroid([[1, 2], [3]], [1, 1])),
             ({"kind": "spanning_tree", "n_vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]},
              Constraint.spanning_tree(3, [(1, 2), (2, 3), (1, 3)])),
             ({"kind": "knapsack", "costs": [1, 2, 3], "budget": 4},
              Constraint.knapsack([1, 2, 3], 4))]
    for doc, c in cases:
        assert Constraint.from_dict(doc) == c


@pytest.mark.parametrize("doc", [
    ({"kind": "cardinality_le", "k": 2, "budget": 5}, ValueError, "takes no 'budget'"),
    ({"kind": "none", "k": 1}, ValueError, "takes no 'k'"),
    ({"kind": "knapsack", "costs": [1, 2, 3]}, ValueError, "needs 'budget'"),
    ({"kind": "spanning_tree", "n_vertices": 3, "edges": [[1, 2]], "directed": False},
     TypeError, "directed"),
    ([["kind", "cardinality_le"], ["k", 2]], TypeError, "mapping"),  # not an object
])
def test_constraint_from_dict_rejects_bad_documents(doc):
    # a field the kind never reads or lacks is named; an unknown key is a TypeError
    doc, error, fragment = doc
    with pytest.raises(error, match=fragment):
        Constraint.from_dict(doc)


def test_constraint_from_dict_kinds():
    assert Constraint.from_dict({}) == Constraint.none()
    for kind in ("nope", "from_dict", "validate"):
        with pytest.raises(ValueError, match="unknown constraint kind"):
            Constraint.from_dict({"kind": kind})


@pytest.mark.parametrize("constraint,fragment", [
    (partial(Constraint, "nope"), "unknown constraint kind"),
    (partial(Constraint.partition_matroid, [[1, 2], [3]], [1]), "matching blocks and quotas"),
    (partial(Constraint.partition_matroid, [[1, 2], [3]], [1, -1]),
     "partition quota must be >= 0"),
    (Constraint.spanning_tree(3, [(1, 2), (2, 3)]), "one graph edge per ground element"),
    (partial(Constraint.spanning_tree, 3, [(1, 2), (2, 2), (1, 3)]), "bad graph edge"),
    (partial(Constraint.spanning_tree, 3, [(1, 2), (2, 4), (1, 3)]), "bad graph edge"),
    (Constraint.knapsack([1, 2], 3), "one cost per ground element"),
])
def test_validate_rejects(constraint, fragment):
    # what needs no n fails when the constraint is made (a partial here); the
    # rest is made at collection and fails to fit n = 3
    with pytest.raises(ValueError, match=fragment):
        constraint() if isinstance(constraint, partial) else constraint.validate(3)


@pytest.mark.parametrize("fields,fragment", [
    ({"kind": "cardinality_le", "k": 2.5}, "cardinality bound must be an integer"),
    ({"kind": "cardinality_le", "k": True}, "cardinality bound must be an integer"),
    ({"kind": "partition_matroid", "blocks": [[1, 2], [3]], "quotas": (1.5, 1)},
     "partition quota must be an integer"),
    ({"kind": "partition_matroid", "blocks": [[True, 2], [3]], "quotas": (1, 1)},
     "partition element must be an integer"),
    ({"kind": "knapsack", "costs": (1, 1, 1)}, "knapsack constraint needs 'budget'"),
    ({"kind": "knapsack", "costs": (-1, 1, 1), "budget": 2},
     "knapsack cost must be >= 0"),
    ({"kind": "knapsack", "costs": (1, 1, 1), "budget": -5},
     "knapsack budget must be >= 0"),
], ids=["fractional_k", "bool_k", "fractional_quota", "bool_block_element", "no_budget",
        "negative_cost", "negative_budget"])
def test_hand_built_constraints_are_read_when_made(fields, fragment):
    # the dataclass itself reads its fields, not only the named constructors
    with pytest.raises(ValueError, match=fragment):
        Constraint(**fields)


def test_spanning_tree_feasibility_rejects_a_cycle():
    c = Constraint.spanning_tree(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    assert c.is_feasible({1, 2, 4}) and not c.is_feasible({1, 2, 3})


@pytest.mark.parametrize("make", [Constraint.cardinality_le, Constraint.cardinality_eq])
def test_cardinality_bound_must_be_whole(make):
    assert make(2.0) == make(2)
    with pytest.raises(ValueError, match="integer"):
        make(1.5)
    with pytest.raises(ValueError, match="integer"):
        make(float("inf"))


def test_spanning_tree_numbers_must_be_whole():
    c = Constraint.spanning_tree(3.0, [(1, 2.0), (2, 3)])
    assert c == Constraint.spanning_tree(3, [(1, 2), (2, 3)]) and type(c.n_vertices) is int
    with pytest.raises(ValueError, match="vertex count must be an integer"):
        Constraint.spanning_tree(3.7, [(1, 2)])
    with pytest.raises(ValueError, match="graph edge endpoint must be an integer"):
        Constraint.spanning_tree(3, [(1, 2.9)])


def test_partition_quota_must_be_whole():
    c = Constraint.partition_matroid([[1, 2]], [1.0])
    assert c == Constraint.partition_matroid([[1, 2]], [1]) and type(c.quotas[0]) is int
    # a whole float element is read as the int it equals, so it can index the weights
    c = Constraint.partition_matroid([[1.0, 2], [3]], [1, 1])
    assert modular_minimize_constrained(weights(-1.0, -2.0, 1.0), c) == frozenset({2})
    assert all(type(i) is int for b in c.blocks for i in b)
    with pytest.raises(ValueError, match="partition quota must be an integer"):
        Constraint.partition_matroid([[1, 2]], [1.5])


@pytest.mark.parametrize("bad", ["2", True, b"2", None, np.True_],
                         ids=["str", "bool", "bytes", "None", "numpy_bool"])
@pytest.mark.parametrize("make,field", [
    (Constraint.cardinality_le, "k"), (Constraint.cardinality_eq, "k"),
    (lambda q: Constraint.partition_matroid([[1]], [q]), None),
    (lambda c: Constraint.knapsack([c], 1), None),
    (lambda b: Constraint.knapsack([1], b), "budget"),
    (lambda v: Constraint.spanning_tree(v, [(1, 2)]), "n_vertices"),
    (lambda u: Constraint.spanning_tree(2, [(u, 2)]), None)],
    ids=["cardinality_le", "cardinality_eq", "quota", "knapsack_cost", "knapsack_budget",
         "vertex_count", "edge_endpoint"])
def test_whole_numbers_must_be_numbers(make, field, bad):
    # a JSON string or boolean is not read as the number it spells; a field
    # left None is missing
    fragment = f"needs {field!r}" if bad is None and field else "must be an integer"
    with pytest.raises(ValueError, match=fragment):
        make(bad)
