import gc
import math
import weakref

import numpy as np
import pytest

import dsmin.sfm
import dsmin.solvers
from dsmin import (Constraint, DSInstance, GroundSet, SetFunctionOracle,
                   SolverError, SolverOptions, memoized, min_norm_point, minima_lower_bounds,
                   mod_mod, modular_lower_bound, modular_upper_bound, sub_sup, sup_sub)
from dsmin.core import MemoizedOracle, best_flip, brute_force_minimize
from dsmin.functions import build_function, modular_spec
from dsmin.solvers import (SOLVERS, TUNING_READ, accept_step, choose_permutation,
                           local_optimality_check)

import helpers
from helpers import epsilon_iteration_cap, sfm_brute_force

SQ3 = math.sqrt(3)
GLOBAL_TRI = -2 * SQ3


class TestAcceptStep:
    def test_negative_value_multiplicative(self):
        assert accept_step(-1.0, -1.05, 0.01)
        assert not accept_step(-1.0, -1.005, 0.01)

    def test_zero_start_requires_strict_descent(self):
        assert accept_step(0.0, -0.2, 0.5)
        assert not accept_step(0.0, 0.0, 0.0)
        assert not accept_step(0.0, 0.1, 0.0)

    def test_positive_value_branch(self):
        assert accept_step(2.0, 1.7, 0.1)      # needs 0.2 decrease
        assert not accept_step(2.0, 1.9, 0.1)
        assert accept_step(2.0, 2.0, 0.0)

    def test_epsilon_zero_accepts_equality_when_negative(self):
        assert accept_step(-1.0, -1.0, 0.0)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            accept_step(-1.0, -2.0, -0.1)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            accept_step(-1.0, -2.0, epsilon)


class TestLocalOptimalityCheck:
    def test_modular_negative_set(self):
        f = memoized(build_function(modular_spec([-1.0, 2.0, -3.0])))
        assert local_optimality_check(f, {1, 3})
        assert not local_optimality_check(f, frozenset())

    def test_agrees_with_exhaustive_scan(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            inst = helpers.random_ds_instance(rng, n)
            v = inst.v_oracle()
            X = frozenset(int(j) for j in range(1, n + 1) if rng.random() < 0.5)
            base = v(X)
            expected = all(
                v(X - {j} if j in X else X | {j}) >= base - 1e-9
                for j in range(1, n + 1))
            assert local_optimality_check(memoized(v), X) == expected


class TestChoosePermutation:
    def test_gain_ordering_example(self):
        g = GroundSet(3)
        scorer = memoized(SetFunctionOracle(g, lambda S: sum([3.0, 1.0, 2.0][j - 1] for j in S)))
        sigma = choose_permutation("g_gain", {2, 3}, scorer, np.random.default_rng(0))
        assert sigma == (3, 2, 1)

    def test_random_is_reproducible(self):
        scorer = helpers.sqrt_card(5)
        a = choose_permutation("random", frozenset(), scorer, np.random.default_rng(7))
        b = choose_permutation("random", frozenset(), scorer, np.random.default_rng(7))
        assert a == b

    def test_full_set_orders_by_within_gain(self):
        g = GroundSet(3)
        scorer = memoized(SetFunctionOracle(g, lambda S: sum([1.0, 5.0, 3.0][j - 1] for j in S)))
        sigma = choose_permutation("g_gain", {1, 2, 3}, scorer, np.random.default_rng(0))
        assert sigma == (2, 3, 1)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError, match="heuristic must be one of"):
            choose_permutation("nope", frozenset(), helpers.sqrt_card(3),
                               np.random.default_rng(0))

    def test_chain_contains_base(self):
        rng = np.random.default_rng(53)
        scorer = memoized(helpers.random_submodular(rng, 6))
        for heur in ("random", "g_gain", "v_gain"):
            X = frozenset({2, 5})
            sigma = choose_permutation(heur, X, scorer, rng)
            assert frozenset(sigma[:len(X)]) == X


class TestShuffledChain:
    @staticmethod
    def _old_chain(X, n, rng, j):
        """Reference chains written out per case: two shuffles, or j pinned inside or outside."""
        if j is None:
            inside, outside = sorted(X), sorted(set(range(1, n + 1)) - X)
            inside = list(rng.permutation(inside)) if inside else []
            outside = list(rng.permutation(outside)) if outside else []
            return tuple(int(i) for i in inside + outside)
        if j in X:
            inside = [int(i) for i in rng.permutation(sorted(X - {j}))] + [j]
            outside = [int(i) for i in rng.permutation(sorted(set(range(1, n + 1)) - X))]
        else:
            inside = [int(i) for i in rng.permutation(sorted(X))]
            rest = sorted(set(range(1, n + 1)) - X - {j})
            outside = [j] + [int(i) for i in rng.permutation(rest)]
        return tuple(inside + outside)

    @pytest.mark.parametrize("X", [frozenset(), frozenset({3}), frozenset({2, 5, 6}),
                                   frozenset(range(1, 7))])
    def test_pins_j_at_the_boundary_and_draws_as_before(self, X):
        # X's part in 1..n, and its complement, which is large at n = 64 and 128
        for n in (1, 2, 6, 64, 128):
            inside = frozenset(j for j in X if j <= n)
            for Y in (inside, frozenset(range(1, n + 1)) - inside):
                for seed in range(5):
                    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
                    for j in (None, *range(1, n + 1)):
                        sigma = dsmin.solvers._shuffled_chain(Y, n, new, j)
                        assert sigma == self._old_chain(Y, n, old, j)
                        assert frozenset(sigma[:len(Y)]) == Y
                        if j is not None:
                            assert sigma[len(Y - {j})] == j


class TestSubSup:
    def test_reaches_global_on_showcase(self):
        tr = sub_sup(helpers.tri_instance(), SolverOptions(seed=0))
        assert tr.final_set == frozenset({1, 2, 3})
        assert tr.final_value == pytest.approx(GLOBAL_TRI)
        assert tr.termination == "converged"
        assert tr.locally_optimal

    def test_modular_g_gives_exact_surrogate(self):
        # with modular g the lower bound is exact, so the first inner
        # minimization already lands on the global minimizer
        rng = np.random.default_rng(55)
        for _ in range(5):
            f = helpers.random_submodular(rng, 5)
            g = helpers.random_modular(rng, 5)
            inst = DSInstance(f, g)
            tr = sub_sup(inst, SolverOptions(seed=1))
            _, best = brute_force_minimize(inst.v_oracle())
            assert tr.final_value == pytest.approx(best, abs=1e-6)
            # the very first accepted surrogate minimization is already global
            first = tr.iterates[1].value if len(tr.iterates) > 1 else tr.iterates[0].value
            assert first == pytest.approx(best, abs=1e-6)

    def test_trace_monotone_and_certified(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            inst = helpers.random_ds_instance(rng, 6)
            tr = sub_sup(inst, SolverOptions(seed=3))
            vals = tr.values()
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
            if tr.termination == "converged":
                assert tr.locally_optimal

    def test_rejects_constraints(self):
        with pytest.raises(ValueError, match="no constraint"):
            sub_sup(helpers.tri_instance(), SolverOptions(), Constraint.cardinality_le(1))


class TestSupSub:
    def test_modular_f_upper_bounds_exact_everywhere(self):
        # for modular f both upper-bound variants equal f at every anchor,
        # so each sup-sub surrogate g - m is exactly -v
        rng = np.random.default_rng(59)
        f = helpers.random_modular(rng, 5)
        for X in helpers.all_subsets(5):
            for variant in (1, 2):
                m = modular_upper_bound(f, X, variant)
                for S in helpers.all_subsets(5):
                    assert m.value(S) == pytest.approx(f(S), abs=1e-9)

    def test_reaches_global_on_showcase(self):
        tr = sup_sub(helpers.tri_instance(), SolverOptions(seed=0))
        assert tr.final_set == frozenset({1, 2, 3})
        assert tr.final_value == pytest.approx(GLOBAL_TRI)

    def test_cardinality_capped_run(self):
        tr = sup_sub(helpers.tri_instance(), SolverOptions(seed=0),
                     Constraint.cardinality_le(1))
        assert tr.final_set == frozenset()
        assert tr.final_value == 0.0
        assert all(len(p.set) <= 1 for p in tr.iterates)

    def test_rejects_unsupported_constraints(self):
        with pytest.raises(ValueError):
            sup_sub(helpers.tri_instance(), SolverOptions(),
                    Constraint.cardinality_eq(2))

    def test_cap_refuses_randomized_double_greedy(self):
        # the capped step is a greedy, so a randomized dg_mode would be ignored
        inst = helpers.random_ds_instance(np.random.default_rng(67), 9)
        with pytest.raises(ValueError, match="dg_mode"):
            sup_sub(inst, SolverOptions(dg_mode="randomized"), Constraint.cardinality_le(3))

    def test_alternate_strategy_still_descends(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            inst = helpers.random_ds_instance(rng, 6)
            tr = sup_sub(inst, SolverOptions(seed=2, ub_strategy="alternate"))
            vals = tr.values()
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


class TestModMod:
    def test_reaches_global_on_showcase(self):
        tr = mod_mod(helpers.tri_instance(), SolverOptions(seed=0))
        assert tr.final_set == frozenset({1, 2, 3})
        assert tr.final_value == pytest.approx(GLOBAL_TRI)
        assert tr.locally_optimal

    def test_spanning_tree_is_kruskal(self):
        g3 = GroundSet(3)
        f = build_function(modular_spec([1.0, 2.0, 3.0]))
        zero = SetFunctionOracle(g3, lambda S: 0.0)
        tr = mod_mod(DSInstance(f, zero), SolverOptions(seed=0),
                     Constraint.spanning_tree(3, [(1, 2), (2, 3), (1, 3)]))
        assert tr.final_set == frozenset({1, 2})
        assert tr.final_value == pytest.approx(3.0)
        assert tr.n_accepted == 0  # bootstrap lands on the tree immediately
        assert all(len(p.set) == 2 for p in tr.iterates)


class TestBoundReuse:
    """Each modular bound and each deterministic maximization is made once per iterate."""

    @staticmethod
    def _instance(n=12):
        """A sparse cut plus a unary term, minus a weighted sqrt: every run below moves."""
        rng = np.random.default_rng(80)
        edges = [[u, v, float(rng.uniform(0.1, 2.0))] for u in range(1, n + 1)
                 for v in range(u + 1, n + 1) if rng.random() < 3.0 / n]
        f = {"kind": "scaled_sum", "terms": [
            {"coeff": 1.0, "spec": helpers.graph_cut_spec(n, edges)},
            {"coeff": 1.0, "spec": modular_spec(rng.uniform(0.0, 7.0, n))}]}
        g = {"kind": "concave_of_modular", "shape": "sqrt",
             "weights": (16.0 * n * rng.uniform(0.5, 1.5, n)).tolist()}
        return DSInstance(build_function(f), build_function(g))

    @staticmethod
    def _log(monkeypatch, name, key, calls=None):
        """Wrap dsmin.solvers.<name> to append key(*args) to ``calls`` on every call."""
        calls, real = [] if calls is None else calls, getattr(dsmin.solvers, name)

        def wrapper(*args):
            calls.append(key(*args))
            return real(*args)

        monkeypatch.setattr(dsmin.solvers, name, wrapper)
        return calls

    @pytest.mark.parametrize("constraint", [Constraint.none(), Constraint.cardinality_le(3),
                                            Constraint.cardinality_eq(4)],
                             ids=["free", "capped", "bootstrap"])
    def test_mod_mod_builds_each_bound_once(self, monkeypatch, constraint):
        upper = self._log(monkeypatch, "modular_upper_bound", lambda f, X, v: (X, v))
        lower = self._log(monkeypatch, "modular_lower_bound", lambda g, Y, sigma: Y)
        perms = self._log(monkeypatch, "choose_permutation", lambda *a: None)
        self._log(monkeypatch, "_shuffled_chain", lambda *a: None, perms)
        tr = mod_mod(self._instance(), SolverOptions(seed=1), constraint)
        assert tr.n_accepted >= 1
        assert len(upper) == len(set(upper))  # at most the 2 variants per set
        assert len(lower) == len(perms) > 2 * tr.n_accepted

    @pytest.mark.parametrize("constraint", [Constraint.none(), Constraint.cardinality_le(3)],
                             ids=["free", "capped"])
    def test_deterministic_sup_sub_maximizes_once_per_set_and_variant(self, monkeypatch,
                                                                      constraint):
        upper = self._log(monkeypatch, "modular_upper_bound", lambda f, X, v: (X, v))
        maxi = self._log(monkeypatch, "double_greedy", lambda *a: None)
        self._log(monkeypatch, "greedy_cardinality_max", lambda *a: None, maxi)
        tr = sup_sub(self._instance(), SolverOptions(), constraint)
        assert tr.n_accepted >= 1
        assert len(upper) == len(set(upper)) == len(maxi)

    def test_sub_sup_reads_the_lower_bound_weights(self, monkeypatch):
        sums = []
        real_value = dsmin.core.AffineModular.value
        monkeypatch.setattr(dsmin.core.AffineModular, "value",
                            lambda m, Y: sums.append(Y) or real_value(m, Y))
        lower = self._log(monkeypatch, "modular_lower_bound", lambda g, Y, sigma: Y)
        vertices = []
        real_vertex = dsmin.sfm.greedy_base_vertex
        monkeypatch.setattr(dsmin.sfm, "greedy_base_vertex",
                            lambda *a: vertices.append(a) or real_vertex(*a))
        made = self._log(monkeypatch, "min_norm_point", lambda *a: len(vertices))
        tr = sub_sup(self._instance(), SolverOptions(seed=2))
        assert tr.n_accepted >= 1
        assert sums == []  # f - h is never summed over a set
        assert len(made) == len(lower)  # one SFM per lower bound
        made = np.diff(made + [len(vertices)])  # the vertices each SFM made
        assert (made == 0).any() and (made > 0).any()  # the lattice settles some alone

    @pytest.mark.parametrize("constraint, dg_mode", [
        (Constraint.none(), "deterministic"), (Constraint.none(), "randomized"),
        (Constraint.cardinality_le(3), "deterministic")],
        ids=["free-deterministic", "free-randomized", "capped"])
    def test_sup_sub_reads_the_upper_bound_weights(self, monkeypatch, constraint, dg_mode):
        sums = []
        real_value = dsmin.core.AffineModular.value
        monkeypatch.setattr(dsmin.core.AffineModular, "value",
                            lambda m, Y: sums.append(Y) or real_value(m, Y))
        upper = self._log(monkeypatch, "modular_upper_bound", lambda f, X, v: (X, v))
        tr = sup_sub(self._instance(), SolverOptions(seed=3, dg_mode=dg_mode), constraint)
        assert tr.n_accepted >= 1 and upper
        assert sums == []  # g - m is never summed over a set

    def test_randomized_sup_sub_keeps_its_sweep_draws(self, monkeypatch):
        upper = self._log(monkeypatch, "modular_upper_bound", lambda f, X, v: (X, v))
        seeds = self._log(monkeypatch, "double_greedy", lambda f, w, mode, seed: seed)
        tr = sup_sub(self._instance(), SolverOptions(dg_mode="randomized", seed=4))
        assert tr.n_accepted >= 1
        # the final stall retries both variants primary has just drawn at the same set
        assert len(seeds) == len(upper) >= len(set(upper)) + 2
        assert len(set(seeds)) == len(seeds)


class TestSurrogateSandwich:
    def test_bounds_sandwich_objective(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            inst = helpers.random_ds_instance(rng, n)
            X = frozenset(int(j) for j in range(1, n + 1) if rng.random() < 0.5)
            sigma = tuple(sorted(X) + sorted(set(range(1, n + 1)) - X))
            h = modular_lower_bound(inst.g, X, sigma)
            for variant in (1, 2):
                m = modular_upper_bound(inst.f, X, variant)
                vX = inst.value(X)
                assert m.value(X) - h.value(X) == pytest.approx(vX, abs=1e-9)
                for S in helpers.all_subsets(n):
                    sur = m.value(S) - h.value(S)
                    assert sur >= inst.value(S) - 1e-9
                    sub_sur = inst.f(S) - h.value(S)
                    assert sub_sur >= inst.value(S) - 1e-9


class TestEpsilonRule:
    def test_large_epsilon_stops_early(self):
        rng = np.random.default_rng(69)
        stopped_early = 0
        for _ in range(20):
            inst = helpers.random_ds_instance(rng, 6)
            tr0 = mod_mod(inst, SolverOptions(seed=6, epsilon=0.0))
            tr9 = mod_mod(inst, SolverOptions(seed=6, epsilon=5.0))
            assert tr9.n_accepted <= tr0.n_accepted + 1
            if tr9.termination == "epsilon_stop":
                stopped_early += 1
        assert stopped_early > 0

    def test_epsilon_blocked_final_flip_stops_the_run(self):
        # f is not submodular: the bound sweeps miss the improving flip of
        # the final set, and the final scan finds it but epsilon blocks it
        f = build_function(helpers.table_spec(3, [0.0, -1.2, -1.3, -0.6, 1.4, -1.6, 0.9, 1.3]))
        g = build_function(modular_spec([0.0] * 3))
        tr = sub_sup(DSInstance(f, g), SolverOptions(epsilon=0.5))
        assert (tr.termination, tr.locally_optimal) == ("epsilon_stop", False)
        v = DSInstance(f, g).v_oracle()
        flip = best_flip(memoized(v), tr.final_set)
        assert flip is not None and not accept_step(tr.final_value, v(flip), 0.5)

    def test_iteration_cap_formula(self):
        assert epsilon_iteration_cap(-10.0, -1.0, 0.1) == math.ceil(math.log(10) / math.log(1.1)) + 1
        with pytest.raises(ValueError):
            epsilon_iteration_cap(-10.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            epsilon_iteration_cap(10.0, -1.0, 0.1)

    def test_accepted_iterations_within_cap(self):
        rng = np.random.default_rng(71)
        checked = 0
        for _ in range(30):
            inst = helpers.random_ds_instance(rng, 6)
            for solver in (sub_sup, lambda i, o: sup_sub(i, o), lambda i, o: mod_mod(i, o)):
                tr = solver(inst, SolverOptions(seed=7, epsilon=0.1))
                if len(tr.iterates) < 2 or tr.iterates[1].value >= 0:
                    continue
                _, bound2 = minima_lower_bounds(inst.f, inst.g, sfm_brute_force)
                if bound2 >= 0:
                    continue
                cap = epsilon_iteration_cap(bound2, tr.iterates[1].value, 0.1)
                assert tr.n_accepted <= cap
                checked += 1
        assert checked > 10


class TestTraceMachinery:
    def test_determinism_same_seed(self):
        inst1 = helpers.tri_instance()
        inst2 = helpers.tri_instance()
        t1 = sub_sup(inst1, SolverOptions(seed=7, heuristic="random"))
        t2 = sub_sup(inst2, SolverOptions(seed=7, heuristic="random"))
        assert [p.set for p in t1.iterates] == [p.set for p in t2.iterates]
        assert t1.to_json_dict() == t2.to_json_dict()

    def test_json_dict_shape(self):
        tr = mod_mod(helpers.tri_instance(), SolverOptions(seed=1))
        doc = tr.to_json_dict()
        assert doc["algorithm"] == "modmod"
        assert doc["final"]["set"] == [1, 2, 3]
        assert len(doc["iterates"]) == len(tr.iterates)
        assert "elapsed" not in doc["iterates"][0]

    def test_totals_count_every_oracle_call(self):
        # the final sweep and the local-optimality check come after the
        # last accepted iterate; the totals must include them
        cut = helpers.random_cut(np.random.default_rng(12), 12)
        calls = [0]

        def counted(fn):
            def wrapper(S):
                calls[0] += 1
                return fn(S)
            return SetFunctionOracle(cut.ground, wrapper)

        inst = DSInstance(counted(cut), counted(lambda S: 3.0 * math.sqrt(len(S))))
        for solver in (sub_sup, sup_sub, mod_mod):
            calls[0] = 0
            tr = solver(inst, SolverOptions(seed=0))
            assert tr.to_json_dict()["final"]["oracle_calls"] == tr.oracle_calls == calls[0]
            assert tr.elapsed >= tr.iterates[-1].elapsed

    @pytest.mark.parametrize("algo", sorted(SOLVERS))
    def test_memoized_parts_count_like_raw_ones(self, algo):
        # each solve keeps a memo of its own, also over parts that cache already
        cut = helpers.random_cut(np.random.default_rng(12), 12)
        g = helpers.sqrt_card(12, 3.0)
        raw = SOLVERS[algo](DSInstance(cut, g), SolverOptions(seed=0))
        memos = DSInstance(memoized(cut), memoized(g))
        for _ in range(2):  # a run on the parts' own memos would find them full the second time
            tr = SOLVERS[algo](memos, SolverOptions(seed=0))
            assert tr.oracle_calls == raw.oracle_calls
            assert tr.to_json_dict() == raw.to_json_dict()  # every iterate's count too

    def test_csv_schema(self, tmp_path):
        tr = mod_mod(helpers.tri_instance(), SolverOptions(seed=1))
        path = tmp_path / "trace.csv"
        tr.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,value,oracle_calls,millis"
        assert len(lines) == len(tr.iterates) + 1

    def test_inner_failure_carries_partial_trace(self):
        g3 = GroundSet(3)

        def exploding(S):
            if len(S) == 3:
                raise RuntimeError("boom")
            return -float(len(S))

        f = SetFunctionOracle(g3, exploding)
        g = SetFunctionOracle(g3, lambda S: 0.0)
        with pytest.raises(SolverError) as ei:
            sub_sup(DSInstance(f, g), SolverOptions(seed=0))
        assert ei.value.trace is not None
        assert len(ei.value.trace.iterates) >= 1

    def test_non_finite_values_rejected(self):
        g3 = GroundSet(3)
        zero = SetFunctionOracle(g3, lambda S: 0.0)
        with pytest.raises(ValueError, match="finite"):
            DSInstance(SetFunctionOracle(g3, lambda S: math.nan), zero)
        # a NaN weight that no spec builder checked
        w = [-1.0, math.nan, 1.0]
        f = SetFunctionOracle(g3, lambda S: sum(w[j - 1] for j in S))
        for solver in (sub_sup, sup_sub, mod_mod):
            with pytest.raises(SolverError, match="not finite"):
                solver(DSInstance(f, zero), SolverOptions(seed=0))

    def test_instance_requires_one_ground_set(self):
        with pytest.raises(ValueError, match="share a ground set"):
            DSInstance(helpers.sqrt_card(3), helpers.sqrt_card(4))

    @pytest.mark.parametrize("bad", [{"epsilon": -0.1}, {"max_iters": 0},
                                     {"heuristic": "nope"}, {"ub_strategy": "nope"},
                                     {"dg_mode": "nope"}, {"epsilon": math.nan},
                                     {"epsilon": math.inf}, {"max_iters": math.nan},
                                     {"max_iters": 2.5}, {"seed": 1.5}, {"seed": -1},
                                     {"max_iters": math.inf}, {"seed": -math.inf},
                                     {"epsilon": True}, {"epsilon": "0.1"},
                                     {"epsilon": 10 ** 400}, {"epsilon": None}])
    def test_bad_options_rejected(self, bad):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must"):
            SolverOptions(**bad)

    def test_mod_mod_without_a_feasible_start_fails(self, monkeypatch):
        # every constraint mod-mod supports has a feasible surrogate minimizer,
        # so an infeasible one is forced
        monkeypatch.setattr(dsmin.solvers, "modular_minimize_constrained",
                            lambda m, c: frozenset())
        with pytest.raises(SolverError, match="feasible starting point"):
            mod_mod(helpers.tri_instance(), constraint=Constraint.cardinality_eq(2))

    def test_instance_requires_normalization(self):
        g3 = GroundSet(3)
        f = SetFunctionOracle(g3, lambda S: 1.0 + len(S))
        g = SetFunctionOracle(g3, lambda S: 0.0)
        with pytest.raises(ValueError):
            DSInstance(f, g)


class TestCollectorState:
    """A descent leaves the cyclic collector as the caller set it."""

    @pytest.mark.parametrize("solver", [sub_sup, sup_sub, mod_mod])
    def test_on_during_the_whole_solve(self, solver):
        seen: list[bool] = []

        def g(S):
            seen.append(gc.isenabled())
            return 2.0 * math.sqrt(len(S))

        inst = DSInstance(helpers.triangle_cut(), SetFunctionOracle(GroundSet(3), g))
        assert gc.isenabled()
        seen.clear()  # the instance evaluates g at the empty set
        solver(inst, SolverOptions(seed=0))
        assert seen and all(seen)

    @pytest.mark.parametrize("solver", [sub_sup, sup_sub, mod_mod])
    def test_on_again_after_a_failed_solve(self, solver):
        # a solve that raises midway has left the collector on at every call
        seen: list[bool] = []

        def g(S):
            seen.append(gc.isenabled())
            if len(S) == 2:
                raise RuntimeError("boom")
            return 2.0 * math.sqrt(len(S))

        inst = DSInstance(helpers.triangle_cut(), SetFunctionOracle(GroundSet(3), g))
        seen.clear()  # the instance evaluates g at the empty set
        with pytest.raises(SolverError, match="boom"):
            solver(inst, SolverOptions(seed=0))
        assert seen and all(seen)
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_off(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sub_sup(helpers.tri_instance(), SolverOptions(seed=0))
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("solver, opts", [
        (sub_sup, SolverOptions(heuristic="random")), (sub_sup, SolverOptions(heuristic="g_gain")),
        (sub_sup, SolverOptions(heuristic="v_gain")), (sup_sub, SolverOptions()),
        (sup_sub, SolverOptions(dg_mode="randomized")),
        (mod_mod, SolverOptions(heuristic="v_gain"))],
        ids=["subsup_random", "subsup_g_gain", "subsup_v_gain", "supsub_deterministic",
             "supsub_randomized", "modmod_v_gain"])
    def test_a_solve_frees_its_memos_without_the_collector(self, monkeypatch, solver, opts):
        # a reference cycle through a run's memos would keep them, and every
        # value they hold, alive until the next collection
        made = []

        class Recorded(MemoizedOracle):
            def __init__(self, inner):
                super().__init__(inner)
                made.append(weakref.ref(self))

        monkeypatch.setattr(dsmin.solvers, "MemoizedOracle", Recorded)
        inst = TestBoundReuse._instance()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            trace = solver(inst, opts)
            alive = [r for r in made if r() is not None]
        finally:
            if was_enabled:
                gc.enable()
        assert trace.n_accepted >= 1
        assert len(made) == 2 and not alive


class TestRunMemoKeys:
    @pytest.mark.parametrize("solver, opts, constraint", [
        (sub_sup, SolverOptions(heuristic="random"), Constraint.none()),
        (sub_sup, SolverOptions(heuristic="g_gain"), Constraint.none()),
        (sub_sup, SolverOptions(heuristic="v_gain"), Constraint.none()),
        (sup_sub, SolverOptions(), Constraint.none()),
        (sup_sub, SolverOptions(dg_mode="randomized"), Constraint.none()),
        (sup_sub, SolverOptions(), Constraint.cardinality_le(3)),
        (mod_mod, SolverOptions(), Constraint.none()),
        (mod_mod, SolverOptions(), Constraint.cardinality_le(3))],
        ids=["subsup_random", "subsup_g_gain", "subsup_v_gain", "supsub_deterministic",
             "supsub_randomized", "supsub_capped", "modmod", "modmod_capped"])
    def test_a_solve_reads_its_memos_by_bitmask_only(self, monkeypatch, solver, opts,
                                                      constraint):
        # a library path that calls a run memo with a frozenset builds and
        # keeps sets the keyed reads avoid
        made = []

        class Recorded(MemoizedOracle):
            def __init__(self, inner):
                super().__init__(inner)
                made.append(self)

        monkeypatch.setattr(dsmin.solvers, "MemoizedOracle", Recorded)
        trace = solver(TestBoundReuse._instance(), opts, constraint)
        assert trace.n_accepted >= 1 and len(made) == 2
        for memo in made:
            assert memo._cache and all(type(key) is int for key in memo._cache)


@pytest.mark.parametrize("algo", sorted(SOLVERS))
def test_unread_options_leave_the_trace_unchanged(algo):
    changed = {"heuristic": ["v_gain", "random"], "ub_strategy": ["alternate"],
               "dg_mode": ["randomized"]}
    inst = helpers.random_ds_instance(np.random.default_rng(61), 7)

    def run(**opts):
        tr = SOLVERS[algo](inst, SolverOptions(seed=4, **opts))
        return (sorted(tr.final_set), [repr(p.value) for p in tr.iterates],
                tr.oracle_calls, tr.termination, tr.locally_optimal)

    base = run()
    for name, values in changed.items():
        if name not in TUNING_READ[algo]:
            assert all(run(**{name: value}) == base for value in values), name


def _random_constraints(rng, n):
    """One constraint of each kind mod-mod supports, drawn at random over 1..n."""
    cut = int(rng.integers(1, n))
    vertices = int(rng.integers(2, n + 2))
    # a random spanning tree of the vertices, then random extra edges up to n
    edges = [(int(rng.integers(1, v)), v) for v in range(2, vertices + 1)]
    while len(edges) < n:
        u, v = rng.choice(np.arange(1, vertices + 1), 2, replace=False)
        edges.append((int(u), int(v)))
    return [Constraint.cardinality_le(int(rng.integers(0, n + 1))),
            Constraint.cardinality_eq(int(rng.integers(0, n + 1))),
            Constraint.partition_matroid([range(1, cut + 1), range(cut + 1, n + 1)],
                                         rng.integers(0, 3, 2)),
            Constraint.knapsack(rng.integers(0, 4, n), int(rng.integers(0, 2 * n))),
            Constraint.spanning_tree(vertices, [edges[i] for i in rng.permutation(n)])]


@pytest.mark.parametrize("family", list(helpers.FAMILY_BUILDERS))
def test_invariants_on_random_instances(family):
    """The paper's invariants on small random instances of every function
    family: traces never increase, every iterate is feasible, bound2 <=
    bound1 <= min v <= every unconstrained final value, and converged
    unconstrained runs end locally optimal."""
    rng = np.random.default_rng(list(helpers.FAMILY_BUILDERS).index(family))
    for i in range(5):
        n = int(rng.integers(3, 9))
        f = helpers.FAMILY_BUILDERS[family](rng, n)
        g = helpers.random_submodular(rng, n)
        inst = DSInstance(f, g) if i % 2 == 0 else DSInstance(g, f)
        _, best = brute_force_minimize(inst.v_oracle())
        bound1, bound2 = minima_lower_bounds(inst.f, inst.g, min_norm_point)
        assert bound2 <= bound1 + 1e-9 and bound1 <= best + 1e-6
        constraints = _random_constraints(rng, n)
        runs = [(sub_sup, Constraint.none()), (sup_sub, Constraint.none()),
                (sup_sub, constraints[0]), (mod_mod, Constraint.none())]
        runs += [(mod_mod, c) for c in constraints]
        for solver, c in runs:
            tr = solver(inst, SolverOptions(seed=i), c)
            vals = tr.values()
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
            assert all(c.is_feasible(p.set) for p in tr.iterates)
            if c.kind == "none":
                assert tr.final_value >= best - 1e-9
                if tr.termination == "converged":
                    assert tr.locally_optimal
