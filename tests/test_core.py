import math
from fractions import Fraction

import numpy as np
import pytest

from dsmin import GroundSet, SetFunctionOracle, ds_decompose, memoized
from dsmin.core import (FLOAT_TOL, AffineModular, best_flip, brute_force_minimize,
                        check_submodular, evaluate_table, mask_of, nonnegative, set_of,
                        subset_key, whole)

from dsmin.functions import build_function, modular_spec

import helpers
from helpers import check_monotone, gain


class TestGroundSet:
    def test_bounds(self):
        g = GroundSet(3)
        assert list(g.elements()) == [1, 2, 3]
        assert g.full == frozenset({1, 2, 3})

    def test_invalid(self):
        with pytest.raises(ValueError):
            GroundSet(0)
        with pytest.raises(ValueError):
            GroundSet(3).check_subset({0, 1})

    @pytest.mark.parametrize("n", [np.int64(3), 3.0])
    def test_whole_sizes_are_read_as_ints(self, n):
        g = GroundSet(n)
        assert g == GroundSet(3) and type(g.n) is int

    @pytest.mark.parametrize("n", [True, 2.5])
    def test_sizes_that_are_not_whole_numbers_are_rejected(self, n):
        with pytest.raises(ValueError, match="ground set size must be an integer"):
            GroundSet(n)


def test_subset_key_orders_by_cardinality_then_lex():
    sets = [frozenset({2}), frozenset({1, 2}), frozenset({1}), frozenset()]
    assert sorted(sets, key=subset_key) == [
        frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]


def test_mask_roundtrip():
    for m in range(16):
        assert mask_of(set_of(m, 4)) == m


class TestGain:
    def test_sqrt(self):
        f = helpers.sqrt_card(3)
        assert gain(f, 2, {1}) == pytest.approx(math.sqrt(2) - 1)

    def test_modular(self):
        g = GroundSet(3)
        w = [3.0, 1.0, 2.0]
        f = SetFunctionOracle(g, lambda S: sum(w[j - 1] for j in S))
        assert gain(f, 3, {1}) == pytest.approx(2.0)

    def test_triangle_cut(self):
        f = helpers.triangle_cut()
        assert gain(f, 2, {1}) == pytest.approx(0.0)

    def test_call_counts(self):
        f = helpers.sqrt_card(3)
        f.call_count = 0
        gain(f, 2, {1})
        assert f.call_count == 2
        f.call_count = 0
        assert gain(f, 1, {1, 2}) == 0.0
        assert f.call_count == 1

    def test_out_of_range(self):
        f = helpers.sqrt_card(3)
        with pytest.raises(ValueError):
            gain(f, 4, {1})


class TestBruteForceMinimize:
    def test_modular_selects_negatives(self):
        g = GroundSet(3)
        w = [-1.0, 2.0, -3.0]
        v = SetFunctionOracle(g, lambda S: sum(w[j - 1] for j in S))
        assert brute_force_minimize(v) == (frozenset({1, 3}), -4.0)

    def test_tie_breaks_toward_smaller_set(self):
        v = helpers.triangle_cut()  # empty set and full set both cut 0
        assert brute_force_minimize(v) == (frozenset(), 0.0)

    def test_sqrt_minus_linear(self):
        g = GroundSet(3)
        v = SetFunctionOracle(g, lambda S: math.sqrt(len(S)) - 0.8 * len(S))
        best, val = brute_force_minimize(v)
        assert best == frozenset({1, 2, 3})
        assert val == pytest.approx(math.sqrt(3) - 2.4)

    def test_refuses_large_ground_set(self):
        v = SetFunctionOracle(GroundSet(26), lambda S: 0.0)
        with pytest.raises(ValueError):
            brute_force_minimize(v)

    def test_refuses_more_than_20_elements_before_evaluating(self):
        v = SetFunctionOracle(GroundSet(21), lambda S: 0.0)
        with pytest.raises(ValueError, match="n=21 > 20"):
            brute_force_minimize(v)
        assert v.call_count == 0

    def test_ties_go_to_the_canonical_first_set_not_the_lowest_mask(self):
        # {1, 2} has the lower bitmask, {3} the smaller cardinality
        minima = {frozenset({1, 2}), frozenset({3}), frozenset({2, 3})}
        v = SetFunctionOracle(GroundSet(3), lambda S: -1.5 if S in minima else 0.0)
        assert brute_force_minimize(v) == (frozenset({3}), -1.5)

    def test_evaluates_every_set_once(self):
        v = SetFunctionOracle(GroundSet(4), lambda S: float(len(S)))
        brute_force_minimize(v)
        assert v.call_count == 16


class TestBestFlip:
    def test_lowest_flip_with_ties_to_the_lower_element(self):
        v = build_function(modular_spec([-1.0, 2.0, -1.0]))
        assert best_flip(v, frozenset(), v.ground) == frozenset({1})
        assert best_flip(v, frozenset({1}), v.ground) == frozenset({1, 3})
        assert best_flip(v, frozenset({1, 3}), v.ground) is None

    def test_must_beat_the_tolerance(self):
        v = build_function(modular_spec([-1.0, 2.0, -1.0]))
        assert best_flip(v, frozenset({1}), v.ground, tol=1.0) is None
        assert best_flip(v, frozenset({1}), v.ground, tol=0.5) == frozenset({1, 3})

    def test_infeasible_flips_are_never_evaluated(self):
        seen = []
        v = SetFunctionOracle(GroundSet(3), lambda S: seen.append(S) or -float(len(S)))
        best = best_flip(v, frozenset({1}), v.ground, feasible=lambda T: len(T) <= 1)
        assert best is None
        assert seen == [frozenset({1}), frozenset()]


class TestCheckSubmodular:
    def test_sqrt_cardinality(self):
        assert check_submodular(helpers.sqrt_card(3))

    def test_pair_indicator_is_not(self):
        g = GroundSet(3)
        f = SetFunctionOracle(g, lambda S: 1.0 if {1, 2} <= S else 0.0)
        assert not check_submodular(f)

    def test_modular(self):
        rng = np.random.default_rng(0)
        assert check_submodular(helpers.random_modular(rng, 5))

    def test_refuses_large(self):
        with pytest.raises(ValueError):
            check_submodular(SetFunctionOracle(GroundSet(17), lambda S: 0.0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_verdict_is_the_enumerated_alpha_within_tol(self, n):
        rng = np.random.default_rng(300 + n)
        for trial in range(24):
            # a submodular table, a random one, and one a few tol away from submodular
            table = evaluate_table(helpers.random_submodular(rng, n))
            if trial % 3 == 1:
                table = rng.normal(0.0, 1.0, 1 << n)
            elif trial % 3 == 2:
                table = table + rng.uniform(-1e-9, 1e-9, 1 << n)
            if trial % 2:
                table = np.round(table, 1)  # ties many gain drops
            table[0] = 0.0
            f = SetFunctionOracle(GroundSet(n), lambda S, t=table: float(t[mask_of(S)]))
            assert check_submodular(f) == (helpers.brute_force_alpha(f) >= -FLOAT_TOL)

    def test_violations_within_tol_that_add_up_past_it(self):
        # each gain grows by 0.6 tol per added element: every pairwise
        # violation is within tol, the growth over two elements is not
        sizes = [0.0, 0.0, 0.6 * FLOAT_TOL, 1.8 * FLOAT_TOL]
        f = SetFunctionOracle(GroundSet(3), lambda S: sizes[len(S)])
        assert helpers.brute_force_alpha(f) < -FLOAT_TOL
        assert not check_submodular(f)


def test_gain_telescopes_to_full_range():
    rng = np.random.default_rng(4)
    f = helpers.random_submodular(rng, 6)
    order = list(rng.permutation(range(1, 7)))
    total = 0.0
    S = set()
    for j in order:
        total += gain(f, int(j), frozenset(S))
        S.add(int(j))
    assert total == pytest.approx(f(f.ground.full) - f(frozenset()), abs=1e-9)


def test_call_count_tracks_every_evaluation():
    f = helpers.sqrt_card(4)
    f.call_count = 0
    for S in ({1}, {1, 2}, {1}, set()):
        f(S)
    assert f.call_count == 4
    m = memoized(f)
    for S in (frozenset({1}), frozenset({1, 2}), frozenset({1}), frozenset()):
        m(S)
    assert m.call_count == 3  # distinct evaluations only


def test_memoized_matches_inner():
    rng = np.random.default_rng(7)
    f = helpers.random_submodular(rng, 5)
    m = memoized(f)
    for S in helpers.all_subsets(5):
        assert m(S) == pytest.approx(f(S))


class TestAffineModular:
    def test_value_and_weight(self):
        m = AffineModular(3.0, np.array([1.0, -2.0, 0.5]))
        assert m.value(frozenset()) == 3.0
        assert m.value({1, 3}) == pytest.approx(4.5)
        assert m.weights[1] == -2.0

    def test_difference(self):
        a = AffineModular(1.0, np.array([1.0, 2.0]))
        b = AffineModular(0.0, np.array([0.5, 0.5]))
        d = a - b
        assert d.offset == 1.0
        assert d.value({1, 2}) == pytest.approx(3.0)


def test_evaluate_table_matches_pointwise():
    rng = np.random.default_rng(11)
    f = helpers.random_submodular(rng, 5)
    table = evaluate_table(f)
    for S in helpers.all_subsets(5):
        assert table[mask_of(S)] == pytest.approx(f(S))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("reader", [check_submodular, ds_decompose, brute_force_minimize],
                         ids=["check_submodular", "ds_decompose", "brute_force_minimize"])
def test_tables_must_be_finite(reader, bad):
    # a NaN would slip through every min() and comparison on the table
    f = SetFunctionOracle(GroundSet(3), lambda S: bad if S in ({1, 2}, {3}) else 0.0, "spiky")
    with pytest.raises(ValueError, match=r"spiky is not finite at \[1, 2\]: "):
        reader(f)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float64(math.inf)],
                         ids=["inf", "-inf", "nan", "numpy_inf"])
def test_whole_rejects_non_finite_naming_the_field(x):
    with pytest.raises(ValueError, match="size must be an integer, got"):
        whole(x, "size")


def test_whole_checks_the_lower_bound_after_reading():
    assert whole(2.0, "folds", 2) == 2 and whole(-3, "shift") == -3
    for x in (1, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="folds must be >= 2, got 1$"):
            whole(x, "folds", 2)


@pytest.mark.parametrize("x", [True, np.True_, "0.5", b"1", None, [1.0], math.nan, math.inf,
                               -math.inf, -0.5, np.float64(-1.0), 10 ** 400])
def test_nonnegative_rejects_naming_the_field(x):
    with pytest.raises(ValueError, match="rate must be finite and >= 0, got"):
        nonnegative(x, "rate")


@pytest.mark.parametrize("x", [0, 3, 0.0, 1.5, np.float64(0.25), np.int64(2), np.float32(0.5),
                               Fraction(1, 4)])
def test_nonnegative_returns_a_float(x):
    out = nonnegative(x, "rate")
    assert type(out) is float and out == x


def test_check_monotone():
    assert check_monotone(helpers.sqrt_card(4))
    g = GroundSet(3)
    down = SetFunctionOracle(g, lambda S: -float(len(S)))
    assert not check_monotone(down)
