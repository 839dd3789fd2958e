import math

import numpy as np
import pytest

from dsmin import GroundSet, SetFunctionOracle, build_function, min_norm_point
from dsmin.core import brute_force_minimize, evaluate_table, mask_of
from dsmin.functions import modular_spec
from dsmin.sfm import ROUND_TOL, certifies_unique_minimizer, greedy_base_vertex

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

    def test_weights_are_subtracted_exactly(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = helpers.random_submodular(rng, n)
            d, w = rng.normal(0, 1, n), rng.normal(0, 1, n)
            np.testing.assert_array_equal(greedy_base_vertex(f, d, w),
                                          greedy_base_vertex(f, d) - w)

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

    @pytest.mark.parametrize("family", ["cut", "facility", "concave"])
    def test_weights_minimize_f_minus_w(self, family):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(2, 11))
            f = helpers.FAMILY_BUILDERS[family](rng, n)
            w = greedy_base_vertex(f, rng.normal(0, 1, n)) + rng.normal(0, 0.5, n)
            X, val, _ = min_norm_point(f, w)
            best_X, best, _ = helpers.sfm_brute_force(f, w)
            assert X == best_X  # the minimal minimizer
            assert val == pytest.approx(best, abs=1e-9)

    def test_weights_of_the_wrong_length_are_rejected(self):
        with pytest.raises(ValueError, match="length"):
            min_norm_point(helpers.triangle_cut(), np.zeros(4))

    def test_unnormalized_f_is_rejected(self):
        # 10 + modular(-1, 2, -3): the minimum is 6 at {1, 3}; a chain that starts
        # from 0 instead of f(empty) would report the empty set
        w = (-1.0, 2.0, -3.0)
        f = SetFunctionOracle(GroundSet(3), lambda S: 10.0 + sum(w[j - 1] for j in S))
        with pytest.raises(ValueError, match="normalized"):
            min_norm_point(f)

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


def _held_point(f, w_p):
    """(X, x, slack) of min_norm_point(f, w_p) as sub-sup holds it; None unless x
    rounds to the same X at -ROUND_TOL and at ROUND_TOL."""
    X, val, x = min_norm_point(f, w_p)
    if X != frozenset(int(j) + 1 for j in np.flatnonzero(x < ROUND_TOL)):
        return None
    return X, x, val - sum(x[j - 1] for j in X)


class TestUniqueMinimizerCertificate:
    @pytest.mark.parametrize("family", ["cut", "facility", "concave"])
    def test_accepted_shifts_have_a_unique_minimizer(self, family):
        rng = np.random.default_rng(47)
        accepted = trials = 0
        for _ in range(25):
            n = int(rng.integers(2, 11))
            f = helpers.FAMILY_BUILDERS[family](rng, n)
            w_p = greedy_base_vertex(f, rng.normal(0, 1, n)) + rng.normal(0, 0.5, n)
            if (held := _held_point(f, w_p)) is None:
                continue
            X, x, slack = held
            for scale in (1e-3, 0.1, 0.3, 1.0):
                w = w_p + rng.normal(0, scale, n)
                trials += 1
                if not certifies_unique_minimizer(X, x + (w_p - w), slack):
                    continue
                accepted += 1
                assert helpers.sfm_brute_force(f, w)[0] == X
                table = evaluate_table(SetFunctionOracle(
                    f.ground, lambda S: f(S) - sum(w[j - 1] for j in S)))
                assert np.flatnonzero(table == table.min()).tolist() == [mask_of(X)]
        assert accepted >= trials // 4 and accepted < trials

    def test_point_inside_the_rounding_band_or_too_much_slack_is_refused(self):
        y = np.array([-1.0, 2.0, 0.5])
        assert certifies_unique_minimizer(frozenset({1}), y, 0.0)
        assert certifies_unique_minimizer(frozenset({1}), y, 0.49)
        assert not certifies_unique_minimizer(frozenset({1}), y, 0.5)  # slack >= m
        assert not certifies_unique_minimizer(frozenset({1, 2}), y, 0.0)  # signs disagree
        for edge in (0.5 * ROUND_TOL, -0.5 * ROUND_TOL, ROUND_TOL, -ROUND_TOL):
            assert not certifies_unique_minimizer(frozenset({1}), np.array([-1.0, 2.0, edge]),
                                                  0.0)

    def test_a_shift_across_the_rounding_band_is_refused(self):
        rng = np.random.default_rng(53)
        f = helpers.random_cut(rng, 8)
        w_p = greedy_base_vertex(f, rng.normal(0, 1, 8)) + rng.normal(0, 0.5, 8)
        X, x, slack = _held_point(f, w_p)
        assert certifies_unique_minimizer(X, x, slack)
        j = int(np.argmin(np.abs(x)))  # the coordinate nearest zero
        for to in (0.0, 0.5 * ROUND_TOL, -0.5 * ROUND_TOL, -np.sign(x[j])):
            w = w_p.copy()
            w[j] += x[j] - to  # moves coordinate j of the shifted point to ``to``
            assert not certifies_unique_minimizer(X, x + (w_p - w), slack)
        assert not certifies_unique_minimizer(X, x, abs(x[j]))  # slack >= m
