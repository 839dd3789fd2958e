import math

import numpy as np
import pytest

from dsmin import (GroundSet, SetFunctionOracle, brute_force_minimize,
                   greedy_base_vertex, min_norm_point)
from dsmin.functions import build_function, modular_spec

import helpers

SQ2 = math.sqrt(2)
SQ3 = math.sqrt(3)


class TestGreedyBaseVertex:
    def test_zero_direction_tie_breaks_by_index(self):
        x = greedy_base_vertex(helpers.sqrt_card(3), np.zeros(3))
        np.testing.assert_allclose(x, [1.0, SQ2 - 1, SQ3 - SQ2])

    def test_modular_is_a_point(self):
        w = [-1.0, 2.0, 0.5]
        f = build_function(modular_spec(w))
        for d in (np.zeros(3), np.array([3.0, -1.0, 0.2])):
            np.testing.assert_allclose(greedy_base_vertex(f, d), w, atol=1e-12)

    def test_cut_descending_direction(self):
        x = greedy_base_vertex(helpers.triangle_cut(), np.array([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(x, [-2.0, 0.0, 2.0])

    def test_bad_direction_length(self):
        with pytest.raises(ValueError):
            greedy_base_vertex(helpers.sqrt_card(3), np.zeros(4))

    def test_vertex_lies_in_base_polytope(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = helpers.random_submodular(rng, n)
            d = rng.normal(0, 1, n)
            x = greedy_base_vertex(f, d)
            assert x.sum() == pytest.approx(f(f.ground.full), abs=1e-9)
            for S in helpers.all_subsets(n):
                assert sum(x[j - 1] for j in S) <= f(S) + 1e-9
            # chain condition: exact on every prefix of the generating order
            order = [int(i) + 1 for i in np.argsort(d, kind="stable")]
            for P in (frozenset(order[:i]) for i in range(n + 1)):
                assert sum(x[j - 1] for j in P) == pytest.approx(f(P), abs=1e-9)

    def test_vertex_minimizes_inner_product(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            f = helpers.random_submodular(rng, n)
            d = rng.normal(0, 1, n)
            x = greedy_base_vertex(f, d)
            # compare against every vertex from every permutation
            import itertools
            for order in itertools.permutations(range(1, n + 1)):
                y = np.empty(n)
                prev, run = 0.0, set()
                for j in order:
                    run.add(j)
                    cur = f(frozenset(run))
                    y[j - 1] = cur - prev
                    prev = cur
                assert d @ x <= d @ y + 1e-9


class TestMinNormPoint:
    def test_modular(self):
        f = build_function(modular_spec([-1.0, 2.0, -3.0]))
        X, val, x = min_norm_point(f)
        assert X == frozenset({1, 3})
        assert val == pytest.approx(-4.0)
        np.testing.assert_allclose(x, [-1.0, 2.0, -3.0], atol=1e-9)

    def test_triangle_cut_minimal_minimizer(self):
        X, val, x = min_norm_point(helpers.triangle_cut())
        assert X == frozenset()
        assert val == 0.0
        np.testing.assert_allclose(x, np.zeros(3), atol=1e-6)

    def test_sqrt_minus_linear(self):
        g = GroundSet(3)
        f = SetFunctionOracle(g, lambda S: math.sqrt(len(S)) - 0.8 * len(S))
        X, val, _ = min_norm_point(f)
        assert X == frozenset({1, 2, 3})
        assert val == pytest.approx(math.sqrt(3) - 2.4)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            min_norm_point(helpers.sqrt_card(2), tol=0.0)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(23)
        cases = [helpers.random_submodular(rng, int(rng.integers(2, 9))) for _ in range(30)]
        # larger ground sets minus a base vertex plus noise, which here puts the
        # minimizer strictly between the empty and the full set
        for n, family in ((12, "facility"), (13, "scaled_sum"), (14, "facility"),
                          (14, "scaled_sum")):
            h = helpers.FAMILY_BUILDERS[family](rng, n)
            w = greedy_base_vertex(h, rng.normal(0, 1, n)) + rng.normal(0, 0.3, n)
            cases.append(SetFunctionOracle(
                h.ground, lambda S, h=h, w=w: h(S) - sum(w[j - 1] for j in S)))
        for f in cases:
            X, val, x = min_norm_point(f)
            _, best = brute_force_minimize(f)
            assert val == pytest.approx(best, abs=1e-6)
            # duality certificate
            assert val >= float(np.minimum(x, 0.0).sum()) - 1e-6

    def test_zero_function(self):
        f = SetFunctionOracle(GroundSet(4), lambda S: 0.0)
        X, val, _ = min_norm_point(f)
        assert X == frozenset()
        assert val == 0.0

    def test_mixed_difference_style_surrogates(self):
        # surrogate shapes seen inside the descent loops: submodular minus modular
        rng = np.random.default_rng(29)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            f = helpers.random_submodular(rng, n)
            w = rng.normal(0, 1.5, n)
            g = GroundSet(n)
            sur = SetFunctionOracle(g, lambda S, _f=f, _w=w: _f(S) - sum(_w[j - 1] for j in S))
            X, val, _ = min_norm_point(sur)
            _, best = brute_force_minimize(sur)
            assert val == pytest.approx(best, abs=1e-6)
