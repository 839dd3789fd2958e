import math
import re

import numpy as np
import pytest

from dsmin import GroundSet, SetFunctionOracle, build_function, memoized
from dsmin.functions import modular_spec
from dsmin.sfmax import double_greedy, greedy_cardinality_max, local_search_max

import helpers


def _zeros(f):
    return [0.0] * f.ground.n


class TestDoubleGreedy:
    def test_modular_is_exact(self):
        f = build_function(modular_spec([1.0, -2.0, 3.0]))
        assert double_greedy(f, _zeros(f)) == frozenset({1, 3})

    def test_monotone_takes_everything(self):
        f = helpers.sqrt_card(4)
        assert double_greedy(f, _zeros(f)) == frozenset({1, 2, 3, 4})

    def test_exactly_2n_plus_2_oracle_calls(self):
        # f(A) and f(B) are carried from step to step, not read again
        rng = np.random.default_rng(31)
        for mode, seed in (("deterministic", None), ("randomized", 3)):
            for _ in range(10):
                n = int(rng.integers(2, 8))
                f = memoized(helpers.random_nonneg_submodular(rng, n))
                double_greedy(f, rng.uniform(-1.0, 1.0, n).tolist(), mode, seed)
                assert f.lookups == 2 * n + 2

    def test_deterministic_third_of_optimum(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            f = helpers.random_nonneg_submodular(rng, n)
            _, opt = helpers.exhaustive_max(f, n)
            assert f(double_greedy(f, _zeros(f))) >= opt / 3.0 - 1e-9

    def test_randomized_reproducible_and_near_half(self):
        rng = np.random.default_rng(35)
        f = helpers.random_nonneg_submodular(rng, 7)
        r1 = double_greedy(f, _zeros(f), "randomized", seed=5)
        r2 = double_greedy(f, _zeros(f), "randomized", seed=5)
        assert r1 == r2
        _, opt = helpers.exhaustive_max(f, 7)
        if opt > 1e-9:
            mean = np.mean([f(double_greedy(f, _zeros(f), "randomized", seed=s))
                            for s in range(200)])
            assert mean >= 0.49 * opt

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            double_greedy(helpers.sqrt_card(2), [0.0] * 2, "other")

    def test_deterministic_mode_refuses_a_seed(self):
        # the deterministic pass draws nothing, so a seed would be ignored
        with pytest.raises(ValueError, match="seed"):
            double_greedy(helpers.sqrt_card(2), [0.0] * 2, "deterministic", seed=0)


class TestGreedyCardinality:
    def test_modular(self):
        f = build_function(modular_spec([3.0, 1.0, 2.0]))
        assert greedy_cardinality_max(f, _zeros(f), 2) == frozenset({1, 3})

    def test_sqrt_tie_break(self):
        f = helpers.sqrt_card(3)
        assert greedy_cardinality_max(f, _zeros(f), 2) == frozenset({1, 2})

    def test_stops_without_positive_gain(self):
        f = build_function(modular_spec([-1.0, -2.0]))
        assert greedy_cardinality_max(f, _zeros(f), 2) == frozenset()

    def test_bad_k(self):
        with pytest.raises(ValueError):
            greedy_cardinality_max(helpers.sqrt_card(3), [0.0] * 3, 4)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_k_must_be_a_whole_number(self, k):
        # 2.5 used to select 3 elements and True to read as 1
        with pytest.raises(ValueError, match="k must be an integer"):
            greedy_cardinality_max(helpers.sqrt_card(3), [0.0] * 3, k)

    def test_one_minus_inv_e_on_monotone_instances(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            f = helpers.random_facility(rng, n)
            k = int(rng.integers(1, n))
            val = f(greedy_cardinality_max(f, _zeros(f), k))
            opt_k = max(f(S) for S in helpers.all_subsets(n) if len(S) <= k)
            assert val >= (1 - 1 / math.e) * opt_k - 1e-9


class TestLocalSearch:
    def test_modular(self):
        f = build_function(modular_spec([-1.0, 2.0]))
        assert local_search_max(f, _zeros(f), frozenset()) == frozenset({2})

    def test_triangle_cut_from_empty(self):
        assert (local_search_max(helpers.triangle_cut(), [0.0] * 3, frozenset())
                == frozenset({1}))

    def test_only_feasible_moves_are_evaluated(self):
        seen = []
        def f(S):
            return seen.append(S) or float(len(S))
        assert local_search_max(SetFunctionOracle(GroundSet(4), f), [0.0] * 4, frozenset(),
                                lambda T: len(T) <= 2) == frozenset({1, 2})
        assert max(map(len, seen)) == 2

    def test_an_infeasible_start_is_refused(self):
        # it used to come back unchanged, although feasible rejects it
        with pytest.raises(ValueError, match=re.escape("start [1, 2, 3] is not feasible")):
            local_search_max(helpers.sqrt_card(3), [0.0] * 3, frozenset({1, 2, 3}),
                             lambda T: len(T) <= 1)

    def test_result_is_locally_maximal(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = helpers.random_submodular(rng, n)
            start = frozenset(int(j) for j in range(1, n + 1) if rng.random() < 0.5)
            res = local_search_max(f, _zeros(f), start)
            for j in range(1, n + 1):
                T = res - {j} if j in res else res | {j}
                assert f(T) <= f(res) + 1e-9
            assert f(res) >= f(start) - 1e-12


class TestWeights:
    """Each maximizer of f - w picks the sets a search on S -> f(S) - w(S) picks.

    f is an integer-weighted cut and w integer, so every value is exact in
    either form and the ties are the same."""

    @staticmethod
    def _instances(seed, count=25):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(2, 8))
            edges = [[u, v, float(rng.integers(1, 4))] for u in range(1, n + 1)
                     for v in range(u + 1, n + 1) if rng.random() < 0.6]
            f = build_function(helpers.graph_cut_spec(n, edges or [[1, 2, 1.0]]))
            w = rng.integers(-3, 4, n).astype(float).tolist()
            yield rng, f, w, SetFunctionOracle(f.ground,
                                               lambda S, f=f, w=w: f(S) - sum(w[j - 1] for j in S))

    def test_double_greedy(self):
        for rng, f, w, plain in self._instances(41):
            assert double_greedy(f, w) == double_greedy(plain, _zeros(plain))
            seed = int(rng.integers(100))
            assert (double_greedy(f, w, "randomized", seed)
                    == double_greedy(plain, _zeros(plain), "randomized", seed))

    def test_greedy_cardinality_max(self):
        for rng, f, w, plain in self._instances(43):
            k = int(rng.integers(0, f.ground.n + 1))
            assert (greedy_cardinality_max(f, w, k)
                    == greedy_cardinality_max(plain, _zeros(plain), k))

    def test_local_search_max(self):
        for rng, f, w, plain in self._instances(47):
            n = f.ground.n
            start = frozenset(j for j in range(1, n + 1) if rng.random() < 0.5)
            cap = int(rng.integers(1, n + 1))
            for feasible in (None, lambda T: len(T) <= cap):
                if feasible is not None and len(start) > cap:
                    continue
                assert (local_search_max(f, w, start, feasible)
                        == local_search_max(plain, _zeros(plain), start, feasible))


class TestWeightLength:
    @pytest.mark.parametrize("length", [2, 4, 5])
    def test_each_maximizer_rejects_a_list_not_of_length_n(self, length):
        f = helpers.sqrt_card(3)
        w = [0.5] * length
        calls = [lambda: double_greedy(f, w),
                 lambda: double_greedy(f, w, "randomized", 1),
                 lambda: greedy_cardinality_max(f, w, 2),
                 lambda: local_search_max(f, w, frozenset())]
        for call in calls:
            with pytest.raises(ValueError, match=f"weights must have length 3, got {length}"):
                call()

    def test_a_list_of_length_n_is_read(self):
        f = helpers.sqrt_card(3)
        assert double_greedy(f, [0.5] * 3) == frozenset({1})  # sqrt|S| - |S|/2
        assert double_greedy(f, [1.5] * 3) == frozenset()
