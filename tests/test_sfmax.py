import math

import numpy as np
import pytest

from dsmin import GroundSet, build_function
from dsmin.functions import modular_spec
from dsmin.sfmax import double_greedy, greedy_cardinality_max, local_search_max

import helpers


class TestDoubleGreedy:
    def test_modular_is_exact(self):
        f = build_function(modular_spec([1.0, -2.0, 3.0]))
        assert double_greedy(f, f.ground) == frozenset({1, 3})

    def test_monotone_takes_everything(self):
        f = helpers.sqrt_card(4)
        assert double_greedy(f, f.ground) == frozenset({1, 2, 3, 4})

    def test_exactly_4n_oracle_calls(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            f = helpers.random_nonneg_submodular(rng, n)
            f.call_count = 0
            double_greedy(f, f.ground)
            assert f.call_count == 4 * n

    def test_deterministic_third_of_optimum(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            f = helpers.random_nonneg_submodular(rng, n)
            _, opt = helpers.exhaustive_max(f, n)
            assert f(double_greedy(f, f.ground)) >= opt / 3.0 - 1e-9

    def test_randomized_reproducible_and_near_half(self):
        rng = np.random.default_rng(35)
        f = helpers.random_nonneg_submodular(rng, 7)
        r1 = double_greedy(f, f.ground, "randomized", seed=5)
        r2 = double_greedy(f, f.ground, "randomized", seed=5)
        assert r1 == r2
        _, opt = helpers.exhaustive_max(f, 7)
        if opt > 1e-9:
            mean = np.mean([f(double_greedy(f, f.ground, "randomized", seed=s))
                            for s in range(200)])
            assert mean >= 0.49 * opt

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            double_greedy(helpers.sqrt_card(2), GroundSet(2), "other")


class TestGreedyCardinality:
    def test_modular(self):
        f = build_function(modular_spec([3.0, 1.0, 2.0]))
        assert greedy_cardinality_max(f, f.ground, 2) == frozenset({1, 3})

    def test_sqrt_tie_break(self):
        f = helpers.sqrt_card(3)
        assert greedy_cardinality_max(f, f.ground, 2) == frozenset({1, 2})

    def test_stops_without_positive_gain(self):
        f = build_function(modular_spec([-1.0, -2.0]))
        assert greedy_cardinality_max(f, f.ground, 2) == frozenset()

    def test_bad_k(self):
        with pytest.raises(ValueError):
            greedy_cardinality_max(helpers.sqrt_card(3), GroundSet(3), 4)

    def test_one_minus_inv_e_on_monotone_instances(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            f = helpers.random_facility(rng, n)
            k = int(rng.integers(1, n))
            val = f(greedy_cardinality_max(f, f.ground, k))
            opt_k = max(f(S) for S in helpers.all_subsets(n) if len(S) <= k)
            assert val >= (1 - 1 / math.e) * opt_k - 1e-9


class TestLocalSearch:
    def test_modular(self):
        f = build_function(modular_spec([-1.0, 2.0]))
        assert local_search_max(f, frozenset(), f.ground) == frozenset({2})

    def test_triangle_cut_from_empty(self):
        assert local_search_max(helpers.triangle_cut(), frozenset(), GroundSet(3)) == frozenset({1})

    def test_only_feasible_moves_are_evaluated(self):
        seen = []
        def f(S):
            return seen.append(S) or float(len(S))
        assert local_search_max(f, frozenset(), GroundSet(4),
                                lambda T: len(T) <= 2) == frozenset({1, 2})
        assert max(map(len, seen)) == 2

    def test_result_is_locally_maximal(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = helpers.random_submodular(rng, n)
            start = frozenset(int(j) for j in range(1, n + 1) if rng.random() < 0.5)
            res = local_search_max(f, start, f.ground)
            for j in range(1, n + 1):
                T = res - {j} if j in res else res | {j}
                assert f(T) <= f(res) + 1e-9
            assert f(res) >= f(start) - 1e-12
