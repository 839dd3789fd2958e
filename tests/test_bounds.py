import math

import numpy as np
import pytest

from dsmin import (GroundSet, Permutation, SetFunctionOracle, build_function,
                   ds_decompose, min_norm_point, minima_lower_bounds,
                   modular_lower_bound, modular_upper_bound)
from dsmin.bounds import sqrt_curvature, totally_normalize
from dsmin.core import (AffineModular, brute_force_minimize, check_submodular,
                        evaluate_table, mask_of)
from dsmin.functions import decomposition_spec_pair, modular_spec

import helpers
from helpers import check_monotone, sfm_brute_force, totally_normalize_instance

SQ2 = math.sqrt(2)
SQ3 = math.sqrt(3)


class TestPermutation:
    def test_chain(self):
        p = Permutation((2, 1, 3))
        assert p.prefix(2) == frozenset({1, 2})
        assert p.chain_contains({2})
        assert p.chain_contains({1, 2})
        assert not p.chain_contains({3})

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


class TestModularLowerBound:
    def test_sqrt_example(self):
        h = modular_lower_bound(helpers.sqrt_card(3), {2}, Permutation((2, 1, 3)))
        assert h.offset == 0.0
        np.testing.assert_allclose(h.weights, [SQ2 - 1, 1.0, SQ3 - SQ2])

    def test_modular_is_its_own_bound(self):
        rng = np.random.default_rng(1)
        f = helpers.random_modular(rng, 4)
        w = np.array([f({j}) for j in range(1, 5)])
        for Y in (frozenset(), frozenset({2, 4})):
            order = sorted(Y) + sorted(set(range(1, 5)) - Y)
            h = modular_lower_bound(f, Y, Permutation(tuple(order)))
            np.testing.assert_allclose(h.weights, w, atol=1e-12)

    def test_triangle_cut_empty_base(self):
        h = modular_lower_bound(helpers.triangle_cut(), frozenset(), Permutation((1, 2, 3)))
        np.testing.assert_allclose(h.weights, [2.0, 0.0, -2.0])

    def test_chain_must_contain_base_set(self):
        with pytest.raises(ValueError):
            modular_lower_bound(helpers.sqrt_card(3), {3}, Permutation((1, 2, 3)))

    def test_lower_bounds_everywhere_and_tight_on_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            g = helpers.random_submodular(rng, n)
            Y = frozenset(int(j) for j in range(1, n + 1) if rng.random() < 0.4)
            order = list(rng.permutation(sorted(Y))) + \
                list(rng.permutation(sorted(set(range(1, n + 1)) - Y)))
            sigma = Permutation(tuple(int(j) for j in order))
            h = modular_lower_bound(g, Y, sigma)
            for S in helpers.all_subsets(n):
                assert h.value(S) <= g(S) + 1e-9
            for P in map(sigma.prefix, range(n + 1)):
                assert h.value(P) == pytest.approx(g(P), abs=1e-9)


class TestModularUpperBound:
    def test_sqrt_example_variant1(self):
        m = modular_upper_bound(helpers.sqrt_card(3), {1, 2}, 1)
        assert m.offset == pytest.approx(2 - SQ2)
        np.testing.assert_allclose(m.weights, [SQ2 - 1, SQ2 - 1, 1.0])
        assert m.value({3}) == pytest.approx(3 - SQ2)

    def test_modular_function_is_exact(self):
        rng = np.random.default_rng(2)
        f = helpers.random_modular(rng, 4)
        for variant in (1, 2):
            m = modular_upper_bound(f, {2, 3}, variant)
            for S in helpers.all_subsets(4):
                assert m.value(S) == pytest.approx(f(S), abs=1e-9)

    def test_empty_base_is_subadditive_bound(self):
        f = helpers.sqrt_card(3)
        for variant in (1, 2):
            m = modular_upper_bound(f, frozenset(), variant)
            assert m.value({1, 2, 3}) == pytest.approx(3.0)
            assert m.value({1, 2, 3}) >= SQ3

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            modular_upper_bound(helpers.sqrt_card(3), {1}, 3)

    @pytest.mark.parametrize("X,variant", [({1, 2}, 1), ({1, 2}, 2), (set(), 1),
                                           ({1, 2, 3}, 2), ({1}, 1), ({2, 3}, 2)])
    def test_evaluates_f_at_x_once(self, X, variant):
        # also where X is the other context, the empty set (1) or V (2), and
        # where a one-element change of X is that context: |X| = 1 for
        # variant 1 and |V - X| = 1 for variant 2
        seen = []
        f = SetFunctionOracle(GroundSet(3), lambda S: seen.append(S) or math.sqrt(len(S)))
        modular_upper_bound(f, X, variant)
        assert seen.count(frozenset(X)) == 1
        assert len(seen) == len(set(seen))

    def test_majorizes_and_one_element_identities(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            f = helpers.random_submodular(rng, n)
            X = frozenset(int(j) for j in range(1, n + 1) if rng.random() < 0.5)
            m1 = modular_upper_bound(f, X, 1)
            m2 = modular_upper_bound(f, X, 2)
            for S in helpers.all_subsets(n):
                assert m1.value(S) >= f(S) - 1e-9
                assert m2.value(S) >= f(S) - 1e-9
            assert m1.value(X) == pytest.approx(f(X), abs=1e-9)
            assert m2.value(X) == pytest.approx(f(X), abs=1e-9)
            for j in X:
                assert m1.value(X - {j}) == pytest.approx(f(X - {j}), abs=1e-9)
            for j in set(range(1, n + 1)) - X:
                assert m2.value(X | {j}) == pytest.approx(f(X | {j}), abs=1e-9)


class TestTotallyNormalize:
    def test_evaluates_each_set_once(self):
        seen = []
        f = SetFunctionOracle(GroundSet(3), lambda S: seen.append(S) or math.sqrt(len(S)))
        totally_normalize(f)
        assert sorted(map(sorted, seen)) == [[1, 2], [1, 2, 3], [1, 3], [2, 3]]

    def test_sqrt(self):
        part, shift = totally_normalize(helpers.sqrt_card(3))
        np.testing.assert_allclose(shift.weights, [SQ3 - SQ2] * 3)
        assert part({1}) == pytest.approx(1 - (SQ3 - SQ2))

    def test_modular_collapses(self):
        rng = np.random.default_rng(3)
        f = helpers.random_modular(rng, 4)
        part, _ = totally_normalize(f)
        for S in helpers.all_subsets(4):
            assert part(S) == pytest.approx(0.0, abs=1e-9)

    def test_triangle_cut(self):
        part, shift = totally_normalize(helpers.triangle_cut())
        np.testing.assert_allclose(shift.weights, [-2.0] * 3)
        assert part({1}) == pytest.approx(4.0)
        assert part({1, 2, 3}) == pytest.approx(6.0)
        assert check_monotone(part)

    def test_monotone_and_reconstructs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = helpers.random_submodular(rng, n)
            part, shift = totally_normalize(f)
            assert check_monotone(part)
            assert part(frozenset()) == pytest.approx(0.0, abs=1e-9)
            for S in helpers.all_subsets(n):
                assert part(S) + shift.value(S) == pytest.approx(f(S), abs=1e-9)


class TestSqrtCurvature:
    def test_closed_form_values(self):
        assert sqrt_curvature(2) == pytest.approx(2 - SQ2, abs=1e-12)
        assert sqrt_curvature(3) == pytest.approx(2 * SQ2 - SQ3 - 1, abs=1e-12)
        with pytest.raises(ValueError, match="n >= 2"):
            sqrt_curvature(1)

    def test_is_true_pairwise_margin(self):
        # compare against direct enumeration of the gain-drop margin
        for n in (2, 3, 4, 5):
            f = helpers.sqrt_card(n)
            worst = math.inf
            for j in range(1, n + 1):
                rest = set(range(1, n + 1)) - {j}
                for X in helpers.all_subsets(n):
                    if not X <= rest:
                        continue
                    for Y in helpers.all_subsets(n):
                        if not (Y <= rest and X < Y):
                            continue
                        drop = (f(X | {j}) - f(X)) - (f(Y | {j}) - f(Y))
                        worst = min(worst, drop)
            assert sqrt_curvature(n) == pytest.approx(worst, abs=1e-12)


def decomposition(v, scale):
    """The (f, g) oracles ``functions.decomposition_spec_pair`` writes for v."""
    n = v.ground.n
    specs = decomposition_spec_pair(helpers.table_spec(n, evaluate_table(v)), n, scale)
    return tuple(build_function(spec, v.ground) for spec in specs)


class TestDSDecompose:
    def test_submodular_input_passes_through(self):
        f = helpers.sqrt_card(3)
        alpha, _, scale = ds_decompose(f)
        assert scale == 0.0
        assert alpha >= 0.0
        df, dg = decomposition(f, scale)
        for S in helpers.all_subsets(3):
            assert df(S) == pytest.approx(f(S))
            assert dg(S) == 0.0

    def test_pair_indicator(self):
        g3 = GroundSet(3)
        v = SetFunctionOracle(g3, lambda S: 1.0 if {1, 2} <= S else 0.0)
        alpha, beta, scale = ds_decompose(v)
        assert alpha == pytest.approx(-1.0)
        assert beta == pytest.approx(2 * SQ2 - SQ3 - 1)
        assert scale == pytest.approx(1.0 / (2 * SQ2 - SQ3 - 1))
        df, dg = decomposition(v, scale)
        assert check_submodular(df)
        assert check_submodular(dg)
        for S in helpers.all_subsets(3):
            assert df(S) - dg(S) == pytest.approx(v(S), abs=1e-9)

    def test_alpha_lb_too_large_rejected(self):
        g3 = GroundSet(3)
        v = SetFunctionOracle(g3, lambda S: 1.0 if {1, 2} <= S else 0.0)
        with pytest.raises(ValueError):
            ds_decompose(v, alpha_lb=-0.5)

    @pytest.mark.parametrize("n", [3, 22])
    @pytest.mark.parametrize("alpha_lb", ["x", math.nan, math.inf, [-1.0], True])
    def test_alpha_lb_must_be_finite_real(self, n, alpha_lb):
        v = SetFunctionOracle(GroundSet(n), lambda S: float(len(S)))
        with pytest.raises(ValueError, match="finite real number"):
            ds_decompose(v, alpha_lb=alpha_lb)

    def test_valid_alpha_lb_scales_up(self):
        g3 = GroundSet(3)
        v = SetFunctionOracle(g3, lambda S: 1.0 if {1, 2} <= S else 0.0)
        _, _, scale = ds_decompose(v, alpha_lb=-2.0)
        assert scale == pytest.approx(2.0 / sqrt_curvature(3))
        assert check_submodular(decomposition(v, scale)[0])

    def test_large_n_requires_lower_bound(self):
        v = SetFunctionOracle(GroundSet(17), lambda S: float(len(S)))
        with pytest.raises(ValueError):
            ds_decompose(v)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("rounded", [False, True], ids=["normal", "rounded"])
    def test_alpha_equals_enumeration(self, n, rounded):
        # tables rounded to 0.1 tie many gain drops
        rng = np.random.default_rng(200 + n)
        for _ in range(8):
            table = rng.normal(0.0, 1.0, 1 << n)
            if rounded:
                table = np.round(table, 1)
            table[0] = 0.0
            v = SetFunctionOracle(GroundSet(n), lambda S, t=table: float(t[mask_of(S)]))
            assert ds_decompose(v)[0] == helpers.brute_force_alpha(v)

    def test_random_tables_reconstruct(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            table = rng.normal(0.0, 1.0, 1 << n)
            table[0] = 0.0
            g = GroundSet(n)
            v = SetFunctionOracle(g, lambda S, t=table: float(t[mask_of(S)]))
            df, dg = decomposition(v, ds_decompose(v)[2])
            assert check_submodular(df)
            assert check_submodular(dg)
            for S in helpers.all_subsets(n):
                assert df(S) - dg(S) == pytest.approx(v(S), abs=1e-9)


class TestMinimaLowerBounds:
    def test_ground_sets_must_match(self):
        f = build_function(modular_spec([1.0, 2.0]))
        with pytest.raises(ValueError, match="share a ground set"):
            minima_lower_bounds(f, build_function(modular_spec([1.0])), sfm_brute_force)

    def test_modular_pair_is_exact(self):
        f = build_function(modular_spec([1.0, 2.0]))
        g = build_function(modular_spec([2.0, 1.0]))
        b1, b2 = minima_lower_bounds(f, g, sfm_brute_force)
        assert b2 == pytest.approx(-1.0)
        v = SetFunctionOracle(f.ground, lambda S: f(S) - g(S))
        assert brute_force_minimize(v)[1] == pytest.approx(b2)

    def test_triangle_cut_vs_two_sqrt(self):
        f = helpers.triangle_cut()
        g = helpers.sqrt_card(3, 2.0)
        b1, b2 = minima_lower_bounds(f, g, min_norm_point)
        assert b1 == pytest.approx(-2 * SQ3, abs=1e-6)   # tight here
        assert b2 == pytest.approx(-(6 * SQ2 - 4 * SQ3) - 3 * (2 + 2 * (SQ3 - SQ2)), abs=1e-9)
        assert b2 <= b1 + 1e-9

    def test_solver_reads_the_shift_weights(self, monkeypatch):
        # one cut - sqrt certificate on 16 elements: the SFM never sums a shift over a set
        sums, inside = [], []
        real_value = AffineModular.value
        monkeypatch.setattr(AffineModular, "value",
                            lambda m, Y: sums.append(Y) or real_value(m, Y))

        def solver(f, w):
            before = len(sums)
            res = min_norm_point(f, w)
            inside.append(len(sums) - before)
            return res

        f = helpers.random_cut(np.random.default_rng(5), 16)
        g = helpers.sqrt_card(16, 3.0)
        b1, b2 = minima_lower_bounds(f, g, solver)
        assert inside == [0]
        assert b2 <= b1 + 1e-9
        assert b1 == pytest.approx(minima_lower_bounds(f, g, sfm_brute_force)[0], abs=1e-9)

    def test_bounds_below_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            inst_f = helpers.random_submodular(rng, n)
            inst_g = helpers.random_submodular(rng, n)
            b1, b2 = minima_lower_bounds(inst_f, inst_g, sfm_brute_force)
            v = SetFunctionOracle(inst_f.ground, lambda S: inst_f(S) - inst_g(S))
            true_min = brute_force_minimize(v)[1]
            assert b1 <= true_min + 1e-9
            assert b2 <= true_min + 1e-9
            assert b2 <= b1 + 1e-9


def test_instance_normalization_identity():
    f = helpers.triangle_cut()
    g = helpers.sqrt_card(3, 2.0)
    norm = totally_normalize_instance(f, g)
    for S in helpers.all_subsets(3):
        v = f(S) - g(S)
        assert norm.f_prime(S) - norm.g_prime(S) + norm.k.value(S) == pytest.approx(v, abs=1e-9)
