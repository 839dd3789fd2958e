import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dsmin import GroundSet, SetFunctionOracle, ds_decompose, memoized
from dsmin.core import (FLOAT_TOL, AffineModular, best_flip, brute_force_minimize,
                        check_submodular, element_indexed, evaluate_table, mask_of, nonnegative,
                        real_array, set_of, set_sum, subset_key, whole)

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

    @pytest.mark.parametrize("j", [2.0, np.int64(2), np.float64(2.0), Fraction(4, 2)])
    def test_whole_elements_are_read_as_ints(self, j):
        for X in ([j, 3], frozenset({j, 3})):
            S = GroundSet(3).check_subset(X)
            assert S == frozenset({2, 3}) and all(type(i) is int for i in S)

    @pytest.mark.parametrize("j, message", [
        (1.5, "element 1.5 outside"), (math.nan, "element nan outside"),
        (Fraction(3, 2), "element 3/2 outside"), (True, "got True"),
        (np.True_, "got np.True_"), ("2", "got '2'"), (None, "got None")])
    def test_elements_that_are_not_whole_numbers_are_rejected(self, j, message):
        # int() would have read 1.5 as 1 and True as 1, so f([1.5]) was f({1})
        with pytest.raises(ValueError, match=message):
            GroundSet(3).check_subset([j])
        with pytest.raises(ValueError, match=message):
            SetFunctionOracle(GroundSet(3), len)([2, j])
        with pytest.raises(ValueError, match=message):
            GroundSet(3).check_subset(frozenset({2, j}))

    @pytest.mark.parametrize("j", [0, 4, -1])
    def test_frozensets_outside_the_ground_set_are_rejected(self, j):
        with pytest.raises(ValueError, match=f"element {j} outside ground set 1..3"):
            GroundSet(3).check_subset(frozenset({1, j}))


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
        v = memoized(build_function(modular_spec([-1.0, 2.0, -1.0])))
        assert best_flip(v, frozenset()) == frozenset({1})
        assert best_flip(v, frozenset({1})) == frozenset({1, 3})
        assert best_flip(v, frozenset({1, 3})) is None

    def test_must_beat_the_tolerance(self):
        v = memoized(build_function(modular_spec([-1.0, 2.0, -1.0])))
        assert best_flip(v, frozenset({1}), tol=1.0) is None
        assert best_flip(v, frozenset({1}), tol=0.5) == frozenset({1, 3})

    def test_infeasible_flips_are_never_evaluated(self):
        seen = []
        v = memoized(SetFunctionOracle(GroundSet(3), lambda S: seen.append(S) or -float(len(S))))
        best = best_flip(v, frozenset({1}), feasible=lambda T: len(T) <= 1)
        assert best is None
        assert seen == [frozenset({1}), frozenset()]

    def test_weights_match_a_brute_force_flip_scan(self):
        # integer values and weights: each flip's score is exact, ties included
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            table = rng.integers(-4, 5, 1 << n).astype(float)
            v = SetFunctionOracle(GroundSet(n), lambda S, t=table: t[mask_of(S)])
            w = rng.integers(-3, 4, n).astype(float).tolist()
            X = set_of(int(rng.integers(1 << n)), n)
            tol = float(rng.integers(0, 2))
            cap = int(rng.integers(0, n + 1))
            feasible = None if rng.random() < 0.5 else lambda T, c=cap: len(T) <= c

            def score(S):
                return v(S) + sum(w[j - 1] for j in S)

            want, bar = None, score(X) - tol
            for j in range(1, n + 1):
                T = X ^ {j}
                if (feasible is None or feasible(T)) and score(T) < bar:
                    want, bar = T, score(T)
            assert best_flip(memoized(v), X, tol, feasible, w) == want


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
    assert f.call_count == 4  # a memo's misses call f's function, not f


@pytest.mark.parametrize("value", [np.float64(0.1), 3, np.int64(-2), Fraction(1, 3)],
                         ids=["float64", "int", "int64", "fraction"])
def test_memo_miss_stores_an_exact_float(value):
    m = memoized(SetFunctionOracle(GroundSet(2), lambda S: value, "h"))
    for _ in range(2):  # the miss, then the hit
        got = m(frozenset({1}))
        assert type(got) is float and got == float(value)


@pytest.mark.parametrize("value", [0.1, np.float64(0.1), 3, np.int64(-2), Fraction(1, 3)],
                         ids=["float", "float64", "int", "int64", "fraction"])
def test_an_oracle_call_returns_an_exact_float(value):
    f = SetFunctionOracle(GroundSet(2), lambda S: value, "h")
    got = f(frozenset({1}))
    assert type(got) is float and got == float(value) and f.call_count == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.inf),
                                 np.float64(math.nan)],
                         ids=["nan", "inf", "-inf", "float64_inf", "float64_nan"])
def test_memo_miss_rejects_a_value_that_is_not_finite(bad):
    m = memoized(SetFunctionOracle(GroundSet(3), lambda S: bad if S == {1, 3} else 0.5, "h"))
    assert m(frozenset({1})) == 0.5
    with pytest.raises(ValueError, match=r"h is not finite at \[1, 3\]: "):
        m(frozenset({3, 1}))
    assert m.call_count == 2 and mask_of({1, 3}) not in m._cache


def test_memoized_passes_a_memo_through():
    m = memoized(helpers.sqrt_card(3))
    assert memoized(m) is m


def test_memoized_matches_inner():
    rng = np.random.default_rng(7)
    f = helpers.random_submodular(rng, 5)
    m = memoized(f)
    for S in helpers.all_subsets(5):
        assert m(S) == pytest.approx(f(S))


def _logged(f, log):
    """An oracle with f's values that logs the bitmask of each set it evaluates."""
    return SetFunctionOracle(f.ground, lambda S: log.append(mask_of(S)) or f(S), f.name)


class TestKeyedReads:
    """A memo's keyed reads give what calls one set at a time give, bit for bit."""

    @pytest.mark.parametrize("n", [20, 64, 128])
    @pytest.mark.parametrize("family", ["cut", "facility", "concave"])
    def test_chains_and_flips_match_calls_one_set_at_a_time(self, family, n):
        # from n = 64 on, bits 63 and up make the masks big ints
        rng = np.random.default_rng(131 + n)
        f = helpers.FAMILY_BUILDERS[family](rng, n)
        keyed_log, called_log = [], []
        keyed, called = memoized(_logged(f, keyed_log)), memoized(_logged(f, called_log))
        got, want = [], []
        for trial in range(3):
            order = [int(j) for j in rng.permutation(n) + 1]
            base = frozenset(order[:trial * n // 4])
            got += keyed.chain_gains(order[len(base):], base)
            prev, running = called(base) if base else 0.0, set(base)
            for j in order[len(base):]:
                running.add(j)
                cur = called(frozenset(running))
                want.append(cur - prev)
                prev = cur
            # a flip scan at a chain prefix, twice: its deletions of the last
            # element hit the chain, and the second scan hits throughout
            X = frozenset(order[:n // 2])
            for _ in range(2):
                got.append(keyed.at(mask_of(X), X))
                want.append(called(X))
                got += [keyed.flip(X, mask_of(X), j) for j in range(1, n + 1)]
                want += [called(X - {j} if j in X else X | {j}) for j in range(1, n + 1)]
            # flips of a mutable set, as double greedy reads them
            A = set(order[:trial + 1])
            got += [keyed.flip(A, mask_of(A), j) for j in range(1, n + 1)]
            want += [called(frozenset(A - {j} if j in A else A | {j})) for j in range(1, n + 1)]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert keyed.call_count == called.call_count < len(got)
        assert keyed_log == called_log

    @pytest.mark.parametrize("first", ["call", "keyed"])
    def test_mixed_reads_evaluate_each_set_once(self, first):
        rng = np.random.default_rng(137)
        n = 20
        f = helpers.random_concave(rng, n)
        log = []
        memo = memoized(_logged(f, log))
        order = [int(j) for j in rng.permutation(n) + 1]
        chain = [frozenset(order[:i]) for i in range(1, n + 1)]
        X = chain[n // 2]
        scan = [X - {j} if j in X else X | {j} for j in range(1, n + 1)]

        def by_call():
            return [memo(S) for S in chain + scan]

        def keyed():
            gains = memo.chain_gains(order)
            values = [memo.at(mask_of(S), S) for S in chain]
            assert gains == [b - a for a, b in zip([0.0] + values, values)]
            return values + [memo.flip(X, mask_of(X), j) for j in range(1, n + 1)]

        reads = (by_call, keyed) if first == "call" else (keyed, by_call)
        values = [read() for read in reads] + [read() for read in reads]
        assert all(v == values[0] for v in values)
        assert sorted(log) == sorted(set(map(mask_of, chain + scan))) == sorted(set(log))
        assert memo.call_count == len(log)

    def test_lookups_are_hits_plus_misses(self):
        rng = np.random.default_rng(139)
        n = 12
        memo = memoized(helpers.random_cut(rng, n))
        hits = 0
        for _ in range(6):
            order = [int(j) for j in rng.permutation(n) + 1]
            X = frozenset(order[:int(rng.integers(n + 1))])
            key, rest = mask_of(X), order[len(X):]
            # (reads, read): a chain reads each prefix, and its base unless empty
            reads = [(1, lambda: memo(X)), (1, lambda: memo.at(key, X)),
                     (len(rest) + bool(X), lambda: memo.chain_gains(rest, X)),
                     *[(1, lambda j=j: memo.flip(X, key, j)) for j in order]]
            for k, read in reads:
                before = memo.call_count
                read()
                hits += k - (memo.call_count - before)
        assert memo.lookups == hits + memo.call_count > 0


class TestOneKeyKind:
    """A memo keeps every value under its set's int bitmask, whatever read
    reaches the set first."""

    @pytest.mark.parametrize("kinds", list(itertools.permutations(["call", "at", "flip", "chain"])),
                             ids="-".join)
    def test_each_set_is_evaluated_once_under_an_int_key(self, kinds):
        rng = np.random.default_rng(149)
        n = 10
        log = []
        memo = memoized(_logged(helpers.random_concave(rng, n), log))
        order = [int(j) for j in rng.permutation(n) + 1]
        chain = [frozenset(order[:i]) for i in range(1, n + 1)]
        X = chain[n // 2]
        sets = chain + [X - {j} if j in X else X | {j} for j in range(1, n + 1)]
        reads = {  # each reads every set of chain + flips of X; a chain also its base
            "call": lambda: [memo(S) for S in sets],
            "at": lambda: [memo.at(mask_of(S), S) for S in sets],
            "flip": lambda: [memo.flip(P, mask_of(P), j)
                             for P, j in zip([frozenset()] + chain, order)] + [
                memo.flip(X, mask_of(X), j) for j in range(1, n + 1)],
            "chain": lambda: [memo.chain_gains(order)] + [
                memo.chain_gains([j], X - {j} if j in X else X) for j in range(1, n + 1)]}
        for kind in kinds:
            before = memo.lookups
            got = reads[kind]()
            assert memo.lookups - before == (3 if kind == "chain" else 2) * n
            if kind != "chain":
                assert got == [memo._cache[mask_of(S)] for S in sets]
        assert sorted(log) == sorted(set(log)) == sorted(set(map(mask_of, sets)))
        assert memo.call_count == len(log) and memo._cache.keys() == set(log)
        assert all(type(key) is int for key in memo._cache)

    @pytest.mark.parametrize("first", ["numpy", "int"])
    def test_numpy_and_int_elements_share_one_evaluation_past_bit_63(self, first):
        log = []
        memo = memoized(SetFunctionOracle(GroundSet(100), lambda S: log.append(S) or len(S) ** 0.5))
        sets = {"numpy": frozenset(np.arange(60, 101)), "int": frozenset(range(60, 101))}
        key = mask_of(sets["int"])
        assert key.bit_length() == 100
        for S in (sets[first], sets["int" if first == "numpy" else "numpy"]):
            assert memo(S) == math.sqrt(41)
        assert memo(np.arange(60.0, 101.0)) == memo.at(key, sets["int"]) == math.sqrt(41)
        assert len(log) == 1 and log[0] is sets[first]  # a miss evaluates the set it was given
        assert list(memo._cache) == [key] and type(key) is int
        assert memo.lookups == 4

    @pytest.mark.parametrize("element", [0, -1, 4, 2.5, np.int64(0), "1"])
    @pytest.mark.parametrize("kind", [frozenset, list])
    def test_a_call_rejects_an_element_outside_the_ground_set(self, element, kind):
        f = build_function({"kind": "concave_of_modular", "shape": "sqrt", "weights": [1, 4, 9]})
        memo = memoized(f)
        message = (f"element {element} outside ground set 1..3" if element != "1"
                   else "element must be an integer, got '1'")
        with pytest.raises(ValueError, match=re.escape(message)):
            memo(kind([2, element]))
        assert memo.call_count == 0 and not memo._cache
        assert memo(frozenset({3})) == 3.0


class TestAffineModular:
    def test_value_and_weight(self):
        m = AffineModular(3.0, np.array([1.0, -2.0, 0.5]))
        assert m.value(frozenset()) == 3.0
        assert m.value({1, 3}) == pytest.approx(4.5)
        assert m.weights[1] == -2.0


def test_set_sum_reads_element_j_at_index_j():
    w = element_indexed(x for x in (0.5, 2.0, 8.0))
    assert w == [0.0, 0.5, 2.0, 8.0]
    assert set_sum(w, [3, 1]) == 8.5 and set_sum(w, ()) == 0.0


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


def test_real_array_names_the_first_non_finite_entry():
    message = "'benefits' must be finite: entry [1, 0] is nan"
    with pytest.raises(ValueError, match=re.escape(message)):
        real_array([[1.0, 2.0], [math.nan, math.inf]], "benefits")
    with pytest.raises(ValueError, match=re.escape("'w' must be finite: entry [2] is -inf")):
        real_array(np.array([0.0, 1.0, -np.inf]), "w")


def test_real_array_checks_the_shape_and_returns_a_copy():
    with pytest.raises(ValueError, match=re.escape("'values' must have shape (4,), got (3,)")):
        real_array([0.0, 1.0, 2.0], "values", (4,))
    x = np.array([0.5, 2.0])
    a = real_array(x, "weights", (2,))
    assert a is not x and a.dtype == np.float64 and a.tolist() == [0.5, 2.0]


def test_check_monotone():
    assert check_monotone(helpers.sqrt_card(4))
    g = GroundSet(3)
    down = SetFunctionOracle(g, lambda S: -float(len(S)))
    assert not check_monotone(down)
