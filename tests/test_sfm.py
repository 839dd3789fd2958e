import gc
import hashlib
import math
import re
import weakref

import numpy as np
import pytest

from dsmin import GroundSet, SetFunctionOracle, build_function, memoized, min_norm_point
from dsmin import core, sfm
from dsmin.core import (MemoizedOracle, brute_force_minimize, element_indexed, evaluate_table,
                        mask_of, set_of, set_sum)
from dsmin.functions import modular_spec
from dsmin.sfm import ROUND_TOL, _minimizer_lattice, greedy_base_vertex

import helpers

SQ2 = math.sqrt(2)
SQ3 = math.sqrt(3)


def _vertex(f, direction, w=None):
    """The greedy base vertex of f - w over f's whole ground set, w zero by default."""
    E = list(f.ground.elements())
    return greedy_base_vertex(f, direction, [0.0] * len(E) if w is None else w, frozenset(), E)


class TestGreedyBaseVertex:
    def test_zero_direction_tie_breaks_by_index(self):
        x = _vertex(helpers.sqrt_card(3), np.zeros(3))
        np.testing.assert_allclose(x, [1.0, SQ2 - 1, SQ3 - SQ2])

    def test_modular_is_a_point(self):
        w = [-1.0, 2.0, 0.5]
        f = build_function(modular_spec(w))
        for d in (np.zeros(3), np.array([3.0, -1.0, 0.2])):
            np.testing.assert_allclose(_vertex(f, d), w, atol=1e-12)

    def test_cut_descending_direction(self):
        x = _vertex(helpers.triangle_cut(), np.array([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(x, [-2.0, 0.0, 2.0])

    def test_weights_are_subtracted_exactly(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = helpers.random_submodular(rng, n)
            d, w = rng.normal(0, 1, n), rng.normal(0, 1, n)
            np.testing.assert_array_equal(_vertex(f, d, w), np.asarray(_vertex(f, d)) - w)

    def test_bad_direction_length(self):
        with pytest.raises(ValueError, match="direction must have length 3"):
            _vertex(helpers.sqrt_card(3), np.zeros(4))

    def test_contraction_telescopes_gains_from_the_base(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            f = helpers.random_submodular(rng, n)
            A = frozenset(j for j in f.ground.elements() if rng.random() < 0.4)
            E = sorted(f.ground.full - A)
            d, w = rng.normal(0, 1, len(E)), rng.normal(0, 1, len(E)).tolist()
            q = greedy_base_vertex(f, d, w, A, E)
            prev, P = f(A), set(A)
            for i in np.argsort(d, kind="stable"):
                P.add(E[i])
                assert q[i] == pytest.approx(f(frozenset(P)) - prev - w[i], abs=1e-12)
                prev = f(frozenset(P))

    def test_vertex_lies_in_base_polytope(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            f = helpers.random_submodular(rng, n)
            d = rng.normal(0, 1, n)
            x = _vertex(f, d)
            assert sum(x) == pytest.approx(f(f.ground.full), abs=1e-9)
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
            x = _vertex(f, d)
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
        X, val, Y = min_norm_point(f, np.zeros(f.ground.n))
        assert X == Y == frozenset({1, 3})  # the lattice pins it; no vertex is made
        assert val == pytest.approx(-4.0)

    def test_triangle_cut_minimal_minimizer(self):
        X, val, Y = min_norm_point(helpers.triangle_cut(), np.zeros(3))
        assert (X, Y) == (frozenset(), frozenset({1, 2, 3}))
        assert val == 0.0

    def test_sqrt_minus_linear(self):
        g = GroundSet(3)
        f = SetFunctionOracle(g, lambda S: math.sqrt(len(S)) - 0.8 * len(S))
        X, val, _ = min_norm_point(f, np.zeros(f.ground.n))
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
            w = _vertex(h, rng.normal(0, 1, n)) + rng.normal(0, 0.3, n)
            cases.append(SetFunctionOracle(
                h.ground, lambda S, h=h, w=w: h(S) - sum(w[j - 1] for j in S)))
        for f in cases:
            X, val, Y = min_norm_point(f, np.zeros(f.ground.n))
            best_X, best, best_Y = helpers.sfm_brute_force(f)
            assert val == pytest.approx(best, abs=1e-6)
            assert (X, Y) == (best_X, best_Y)

    @pytest.mark.parametrize("family", ["cut", "facility", "concave"])
    def test_weights_minimize_f_minus_w(self, family):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(2, 11))
            f = helpers.FAMILY_BUILDERS[family](rng, n)
            w = _vertex(f, rng.normal(0, 1, n)) + rng.normal(0, 0.5, n)
            X, val, Y = min_norm_point(f, w)
            best_X, best, best_Y = helpers.sfm_brute_force(f, w)
            assert (X, Y) == (best_X, best_Y)  # the minimal and maximal minimizers
            assert val == pytest.approx(best, abs=1e-9)

    def test_weights_of_the_wrong_length_are_rejected(self):
        with pytest.raises(ValueError, match=re.escape("'weights' must have shape (3,), got (4,)")):
            min_norm_point(helpers.triangle_cut(), np.zeros(4))

    @pytest.mark.parametrize("w, entry", [
        (["0.5", "-0.5", "2"], "'0.5'"), ([True, False, True], "True"),
        ([0.5, np.bool_(False), 2.0], repr(np.bool_(False))),
        (np.array([1, 0, 1], dtype=bool), "True")])
    def test_string_and_bool_weights_are_rejected(self, w, entry):
        # float() would read "0.5" as 0.5 and True as 1.0
        with pytest.raises(ValueError, match=re.escape(f"must hold real numbers, got {entry}")):
            min_norm_point(helpers.triangle_cut(), w)

    def test_int_and_numpy_weights_read_as_floats(self):
        f = helpers.triangle_cut()
        expected = min_norm_point(f, np.array([0.5, -0.5, 2.0]))
        for w in ([0.5, -0.5, 2], [np.float64(0.5), np.float32(-0.5), np.int64(2)],
                  np.array([0.5, -0.5, 2.0], dtype=np.float32)):
            assert min_norm_point(f, w) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_are_rejected(self, bad):
        # an infinite weight would otherwise pin the lattice to a -inf "minimum"
        with pytest.raises(ValueError, match=r"must be finite: entry \[1\] is"):
            min_norm_point(helpers.triangle_cut(), [0.0, bad, 1.0])

    def test_crossing_lattice_runs_unreduced(self):
        # not submodular: element 1 has gain -1 at the empty set and +1 at {2}
        f = build_function(helpers.table_spec(2, [0.0, -1.0, 0.0, 1.0]))
        assert _minimizer_lattice(memoized(f), [0.0, 0.0]) == (frozenset(), frozenset({1, 2}))
        X, val, Y = min_norm_point(f, np.zeros(f.ground.n))
        assert X <= Y and val == f(X)

    def test_unnormalized_f_is_rejected(self):
        # 10 + modular(-1, 2, -3): the minimum is 6 at {1, 3}; a chain that starts
        # from 0 instead of f(empty) would report the empty set
        w = (-1.0, 2.0, -3.0)
        f = SetFunctionOracle(GroundSet(3), lambda S: 10.0 + sum(w[j - 1] for j in S))
        with pytest.raises(ValueError, match="normalized"):
            min_norm_point(f, np.zeros(f.ground.n))

    def test_zero_function(self):
        f = SetFunctionOracle(GroundSet(4), lambda S: 0.0)
        X, val, _ = min_norm_point(f, np.zeros(f.ground.n))
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
            X, val, _ = min_norm_point(sur, np.zeros(sur.ground.n))
            _, best = brute_force_minimize(sur)
            assert val == pytest.approx(best, abs=1e-6)


def _lattice_weights(rng, f, kind):
    """Weights that make f - w have one minimizer (kind 0), a tie between every
    prefix of a greedy chain (1: w is a base vertex, so f - w >= 0 with 0 on the
    chain), or ties on some elements only (2)."""
    n = f.ground.n
    if kind == 0:
        return _vertex(f, rng.normal(0, 1, n)) + rng.normal(0, 0.5, n)
    w = np.asarray(_vertex(f, rng.normal(0, 1, n)))
    return w if kind == 1 else w + np.where(rng.random(n) < 0.5, rng.normal(0, 0.5, n), 0.0)


class TestMinimizerLattice:
    @pytest.mark.parametrize("family", ["cut", "facility", "concave", "table"])
    def test_lattice_holds_every_minimizer_and_rounds_to_the_extremes(self, family):
        rng = np.random.default_rng(61)
        pinned = 0
        for trial in range(24):
            n = int(rng.integers(2, 11))
            f = helpers.FAMILY_BUILDERS[family](rng, n)
            w = _lattice_weights(rng, f, trial % 3)
            A, B = _minimizer_lattice(memoized(f), w.tolist())
            table = evaluate_table(SetFunctionOracle(
                f.ground, lambda S: f(S) - sum(w[j - 1] for j in S)))
            minimizers = [set_of(int(m), n) for m in np.flatnonzero(table <= table.min() + 1e-9)]
            assert all(A <= M <= B for M in minimizers)
            if A == B:
                pinned += 1
                assert minimizers == [A]
            X, val, Y = min_norm_point(f, w)
            best_X, best, best_Y = helpers.sfm_brute_force(f, w)
            assert (X, Y) == (best_X, best_Y)
            assert val == pytest.approx(best, abs=1e-9)
        assert 0 < pinned < 24  # both the pinned and the Wolfe path run


def _pinned_run(seed: int = 85) -> tuple[int, str]:
    """Nine SFMs on one memo of a seeded cut, then nine on a facility location,
    both at n = 12: how many sets they evaluate, and a digest of each memo's
    keys (bitmasks, as the SFM's keyed reads keep them, in insertion order) and
    of each result's sets, in their iteration order, and value bits."""
    rng = np.random.default_rng(seed)
    digest, count = hashlib.sha256(), 0
    for family in ("cut", "facility"):
        f = helpers.FAMILY_BUILDERS[family](rng, 12)
        memo = memoized(f)
        for trial in range(9):
            X, val, Y = min_norm_point(memo, _lattice_weights(rng, f, trial % 3))
            digest.update(repr((tuple(X), val.hex(), tuple(Y))).encode())
        digest.update(np.array(list(memo._cache), dtype="<i8").tobytes())
        count += len(memo._cache)
    return count, digest.hexdigest()


def _reference_lattice(f, w):
    """``_minimizer_lattice`` as it was before the first round's gains were kept
    per memo: every round evaluates f(A), f(B) and both sides' neighbours."""
    A, B = frozenset(), f.ground.full
    while True:
        fA, fB = f(A), f(B)
        free = sorted(B - A)
        grow = {j for j in free if f(A | {j}) - fA - w[j - 1] < -ROUND_TOL}
        shrink = {j for j in free if fB - f(B - {j}) - w[j - 1] > ROUND_TOL}
        if grow & shrink:
            return frozenset(), f.ground.full
        if not grow and not shrink:
            return A, B
        A, B = A | grow, B - shrink


class TestPerMemoWork:
    """What ``min_norm_point`` keeps per memo must change neither its results
    nor the order in which it first evaluates sets."""

    def test_a_second_sfm_reads_no_singleton_or_co_singleton(self, monkeypatch):
        rng = np.random.default_rng(81)
        n = 8
        f = helpers.random_cut(rng, n)
        memo = memoized(f)
        min_norm_point(memo, rng.normal(0, 1, n))
        seen = []  # the bitmask of every set the second SFM looks up
        call, at, flip, chain = (MemoizedOracle.__call__, MemoizedOracle.at, MemoizedOracle.flip,
                                 MemoizedOracle.chain_gains)

        def chain_gains(self, order, base=frozenset()):
            key = mask_of(base)
            for j in order:
                key |= 1 << (j - 1)
                seen.append(key)
            return chain(self, order, base)

        monkeypatch.setattr(MemoizedOracle, "__call__",
                            lambda self, X: seen.append(mask_of(X)) or call(self, X))
        monkeypatch.setattr(MemoizedOracle, "at",
                            lambda self, key, S: seen.append(key) or at(self, key, S))
        monkeypatch.setattr(MemoizedOracle, "flip", lambda self, X, key, j: seen.append(
            key ^ 1 << (j - 1)) or flip(self, X, key, j))
        monkeypatch.setattr(MemoizedOracle, "chain_gains", chain_gains)
        # weights far beyond every gain pin each element in the first round
        w = np.where(np.arange(n) % 2 == 0, 100.0, -100.0)
        X, val, Y = min_norm_point(memo, w)
        assert X == Y == frozenset({1, 3, 5, 7})
        assert seen and not [k for k in seen if k.bit_count() in (1, n - 1)]
        monkeypatch.undo()
        assert min_norm_point(f, w) == (X, val, Y)

    def test_end_gains_do_not_keep_their_memo_alive(self):
        memo = memoized(helpers.triangle_cut())
        min_norm_point(memo, [0.5, -0.5, 2.0])
        gone = weakref.ref(memo)
        del memo
        gc.collect()
        assert gone() is None

    @pytest.mark.parametrize("family", ["cut", "facility"])
    def test_a_memo_and_its_raw_oracle_give_the_same_bits(self, family):
        rng = np.random.default_rng(83)
        for _ in range(4):
            n = int(rng.integers(4, 11))
            f = helpers.FAMILY_BUILDERS[family](rng, n)
            memo = memoized(f)
            for trial in range(6):
                w = _lattice_weights(rng, f, trial % 3)
                X, val, Y = min_norm_point(memo, w)
                X_raw, val_raw, Y_raw = min_norm_point(f, w)
                assert (tuple(X), val.hex(), tuple(Y)) == (
                    tuple(X_raw), val_raw.hex(), tuple(Y_raw))

    @pytest.mark.parametrize("family", ["cut", "facility", "concave"])
    def test_the_lattice_makes_the_sets_its_reference_loop_makes(self, family):
        # A set's iteration order depends on how it was made, and fixes the
        # order of every sum over it; ground sets past 16 elements show it
        rng = np.random.default_rng(87)
        for _ in range(3):
            f = helpers.FAMILY_BUILDERS[family](rng, 20)
            memo, reference = memoized(f), memoized(f)
            for trial in range(12):
                w = _lattice_weights(rng, f, trial % 3).tolist()
                # min_norm_point's normalization check, keyed as it reads it
                memo.at(0, frozenset())
                reference(frozenset())
                A, B = _minimizer_lattice(memo, w)
                A_ref, B_ref = _reference_lattice(reference, w)
                assert (tuple(A), tuple(B)) == (tuple(A_ref), tuple(B_ref))
            # the same sets first evaluated in the same order, to the same bits:
            # the bits carry each set's iteration order when it was evaluated
            assert [(key, val.hex()) for key, val in memo._cache.items()] == [
                (key, val.hex()) for key, val in reference._cache.items()]

    def test_the_order_of_first_evaluations_is_pinned(self):
        # Recorded when the corral moved to its triangular factor (1117 sets with
        # kept normal equations, 1107 on numpy, 1192 before the duality
        # certificate): the kind 1 weights tie f - w on a whole chain, and
        # rounding at the last bit of x reorders near-tied coordinates of the
        # next vertex.  Evaluating f(B) after the sets next to A, or one vertex
        # more or less, changes the memo's order
        assert _pinned_run() == (
            1111, "291e995784a30cb594c8bff962657094aa25328455d91f569e3531d9cff40f67")


def _affine_minimizer(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point of minimum norm in the affine hull of the rows of S, and its affine
    coefficients, from numpy's solve of the normal equations on the vertex
    differences (least squares where they are singular)."""
    m = S.shape[0]
    if m == 1:
        return S[0].copy(), np.ones(1)
    D = S[1:] - S[0]
    A = D @ D.T
    b = -D @ S[0]
    try:
        mu = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        mu, *_ = np.linalg.lstsq(A, b, rcond=None)
    coeffs = np.empty(m)
    coeffs[1:] = mu
    coeffs[0] = 1.0 - np.add.reduce(mu)
    return S[0] + D.T @ mu, coeffs


def _reference_min_norm_point(f, w):
    """``min_norm_point`` as it was before the duality certificate: Wolfe's loop
    stops only at the gap, an active vertex, a stuck minor cycle or the cap.
    Its vertices come through ``sfm.greedy_base_vertex``, so a test can count them."""
    fm = memoized(f)
    fm(frozenset())
    weights = w.tolist()
    A, B = _minimizer_lattice(fm, weights)
    if A == B:
        return A, fm(A) - set_sum(element_indexed(weights), A), A
    E = np.array(sorted(B - A))
    m = len(E)
    wE = w[E - 1]
    x = np.asarray(sfm.greedy_base_vertex(fm, np.zeros(m), wE, A, E.tolist()))
    S = x.reshape(1, m).copy()
    norms = [float(np.add.reduce(x * x))]
    lam = np.ones(1)
    for _ in range(100 * m * m):
        q = np.asarray(sfm.greedy_base_vertex(fm, x, wE, A, E.tolist()))
        xx = float(x @ x)
        corr = max(1.0, xx, float(q @ q), max(norms))
        if xx - float(x @ q) <= sfm._GAP_TOL * corr:
            break
        if np.minimum.reduce(np.maximum.reduce(np.abs(S - q), axis=1)) <= sfm._DROP_TOL * corr:
            break
        S = np.concatenate((S, q.reshape(1, m)))
        norms.append(float(np.add.reduce(q * q)))
        lam = np.concatenate((lam, [0.0]))
        for _minor in range(10 * m + 100):
            y, coeffs = _affine_minimizer(S)
            if np.minimum.reduce(coeffs) >= -sfm._DROP_TOL:
                x, lam = y, np.maximum(coeffs, 0.0)
                break
            neg = coeffs < -sfm._DROP_TOL
            theta = float(np.minimum.reduce(lam[neg] / (lam[neg] - coeffs[neg])))
            lam = (1.0 - theta) * lam + theta * coeffs
            keep = lam > sfm._DROP_TOL
            if not np.logical_or.reduce(keep):
                keep[int(np.argmax(lam))] = True
            S = S[keep]
            norms = [r for r, k in zip(norms, keep.tolist()) if k]
            lam = lam[keep]
            lam = lam / np.add.reduce(lam)
            x = S.T @ lam
        else:
            break
    else:
        raise RuntimeError("min-norm point did not converge")
    X = A | frozenset(E[x < -ROUND_TOL].tolist())
    return X, fm(X) - set_sum(element_indexed(weights), X), A | frozenset(E[x < ROUND_TOL].tolist())


class TestDualityCertificate:
    """Wolfe's loop may stop at the first vertex that certifies the rounded
    minimizers; it must return what the full loop returns, and never later
    than the same loop without the certificate."""

    @pytest.mark.parametrize("family", ["cut", "facility", "concave", "table"])
    def test_the_certified_loop_returns_the_full_loops_minimizers(self, family, monkeypatch):
        rng = np.random.default_rng(93)
        vertices = []
        vertex = sfm.greedy_base_vertex
        monkeypatch.setattr(sfm, "greedy_base_vertex",
                            lambda *args: vertices.append(1) or vertex(*args))
        certify = sfm._certified
        full = certified = 0
        for trial in range(12):
            # a table costs 2^n evaluations to build: up to 12 elements there
            n = int(rng.integers(8, 13 if family == "table" else 17))
            f = helpers.FAMILY_BUILDERS[family](rng, n)
            w = _lattice_weights(rng, f, trial % 3)
            X_ref, val_ref, Y_ref = _reference_min_norm_point(f, w)
            # the same loop, in the same arithmetic, without the certificate
            monkeypatch.setattr(sfm, "_certified", lambda x, q: False)
            vertices.clear()
            X_full, val_full, Y_full = min_norm_point(f, w)
            full_here = len(vertices)
            monkeypatch.setattr(sfm, "_certified", certify)
            vertices.clear()
            X, val, Y = min_norm_point(f, w)
            assert len(vertices) <= full_here
            assert (X, Y) == (X_full, Y_full) == (X_ref, Y_ref)
            assert val == pytest.approx(val_ref, abs=1e-9)
            if n <= 12:  # the minimal and the maximal minimizer
                best_X, best, best_Y = helpers.sfm_brute_force(f, w)
                assert (X, Y) == (best_X, best_Y)
                assert val == pytest.approx(best, abs=1e-9)
            # kind 1 ties f - w on a whole chain, so min F = 0 and x^-(E) reaches
            # it only as the gap closes: the certificate does not fire there
            if trial % 3 != 1:
                full += full_here
                certified += len(vertices)
        assert 0 < certified < full


class TestPlainFloatLoop:
    """Wolfe's loop on float lists must find what the numpy reference finds,
    also on ground sets past the 16 elements of the tests above, and the
    corral's triangular factor must stay the factor of the vertices it keeps."""

    @pytest.mark.parametrize("family", ["cut", "facility", "concave"])
    def test_larger_ground_sets_match_the_numpy_reference(self, family):
        rng = np.random.default_rng(97)
        for kind in range(3):
            n = int(rng.integers(20, 41))
            f = helpers.FAMILY_BUILDERS[family](rng, n)
            w = _lattice_weights(rng, f, kind)
            X, val, Y = min_norm_point(f, w)
            X_ref, val_ref, Y_ref = _reference_min_norm_point(f, w)
            assert (X, Y) == (X_ref, Y_ref)
            assert val == pytest.approx(val_ref, abs=1e-9)

    def test_a_degenerate_corral_matches_the_numpy_reference(self):
        # Trial 4 of the generator above on the concave family: n = 26 and
        # weights on a base vertex, whose corral holds 20-25 vertices for
        # thousands of major cycles, so an O(k^3) minor cycle takes seconds
        rng = np.random.default_rng(97)
        for trial in range(5):
            n = int(rng.integers(20, 41))
            f = helpers.FAMILY_BUILDERS["concave"](rng, n)
            w = _lattice_weights(rng, f, trial % 3)
        assert n == 26
        X, val, Y = min_norm_point(f, w)
        X_ref, val_ref, Y_ref = _reference_min_norm_point(f, w)
        assert (X, Y) == (X_ref, Y_ref)
        assert val == pytest.approx(val_ref, abs=1e-9)

    def test_one_free_element(self, monkeypatch):
        # element 2 has gain 0 in every context, so the lattice leaves it alone
        f = build_function(modular_spec([-1.0, 0.0, 2.0]))
        A, B = _minimizer_lattice(memoized(f), [0.0, 0.0, 0.0])
        assert (A, B) == (frozenset({1}), frozenset({1, 2}))
        vertices = []
        vertex = sfm.greedy_base_vertex
        monkeypatch.setattr(sfm, "greedy_base_vertex",
                            lambda *args: vertices.append(args) or vertex(*args))
        X, val, Y = min_norm_point(f, np.zeros(f.ground.n))
        assert vertices and all(args[4] == [2] for args in vertices)  # Wolfe ran on m = 1
        assert (X, val, Y) == (frozenset({1}), -1.0, frozenset({1, 2}))
        assert (X, Y) == helpers.sfm_brute_force(f)[::2]

    def test_the_factor_gives_numpys_affine_minimizer(self):
        rng = np.random.default_rng(99)
        for k in range(1, 14):
            S = rng.normal(0, 1, (k, 17))
            R, z, kept = [], [], []
            for q in S.tolist():
                assert sfm._append(R, z, kept, q, sfm._dot(q, q))
                kept.append(q)
            coeffs = sfm._affine_weights(R, z)
            y_ref, coeffs_ref = _affine_minimizer(S)
            np.testing.assert_allclose(coeffs, coeffs_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(sfm._combination(coeffs, S.tolist()), y_ref,
                                       rtol=0, atol=1e-9)

    def test_adds_and_drops_keep_the_factor_of_the_corral(self):
        rng = np.random.default_rng(101)
        S, R, z = [], [], []
        for step in range(200):
            if len(S) > 1 and (len(S) == 12 or rng.random() < 0.4):
                i = 0 if step % 5 == 0 else int(rng.integers(len(S)))  # the first one too
                sfm._drop(R, z, i)
                del S[i]
            else:
                q = rng.normal(0, 2, 15).tolist()
                assert sfm._append(R, z, S, q, sfm._dot(q, q))
                S.append(q)
            k = len(S)
            assert [len(col) for col in R] == list(range(1, k + 1))  # upper triangular
            assert min(col[-1] for col in R) > 0.0
            U = np.zeros((k, k))
            for j, col in enumerate(R):
                U[:j + 1, j] = col
            np.testing.assert_allclose(U.T @ U, 1.0 + np.array(S) @ np.array(S).T,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(U.T @ z, np.ones(k), rtol=0, atol=1e-10)

    # Each corral below is exact in binary, and its last vertex lies in the
    # affine hull of the ones before it: a repeat or a point on their line or
    # plane, which the factor refuses (rounding lets the repeat of the first
    # vertex through, so the first loop below skips repeats itself).  In Wolfe's
    # loop such a vertex has gap 0, so the gap test stops it before the factor
    # sees it.  The line's point of minimum norm lies between its first two
    # points, so the loop keeps both until the third arrives.
    @pytest.mark.parametrize("S", [
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 0.0, 1.0]],
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        [[-1.0, -2.0, 0.0, 1.0], [0.0, -1.0, 1.0, 2.0], [1.0, 0.0, 2.0, 3.0]],
        [[1.0, 2.0, 0.0, -1.0], [-1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 1.0, 0.0],
         [1.0, 1.0, 1.0, 1.0]]],
        ids=["repeated", "repeated-first", "on-a-line", "mid-point-and-one-more"])
    def test_a_dependent_vertex_ends_the_loop(self, S, monkeypatch):
        kept, R, z = [], [], []
        for q in S:
            if q in kept or not sfm._append(R, z, kept, q, sfm._dot(q, q)):
                break
            kept.append(q)
        assert len(kept) == 2
        np.testing.assert_allclose(sfm._combination(sfm._affine_weights(R, z), kept),
                                   _affine_minimizer(np.array(kept))[0], rtol=0, atol=1e-12)
        # and Wolfe's loop, fed these vertices in this order, ends without an error
        f = build_function(modular_spec([0.0] * len(S[0])))
        rows = iter(S)
        monkeypatch.setattr(sfm, "greedy_base_vertex", lambda *args: list(next(rows, S[-1])))
        X, val, Y = min_norm_point(f, np.zeros(f.ground.n))
        assert X <= Y and math.isfinite(val)
        # also with the gap test and the certificate off: then at the factor's refusal
        monkeypatch.setattr(sfm, "_GAP_TOL", -math.inf)
        monkeypatch.setattr(sfm, "_certified", lambda x, q: False)
        appended, append = [], sfm._append
        monkeypatch.setattr(sfm, "_append",
                            lambda *args: appended.append(append(*args)) or appended[-1])
        rows = iter(S)
        X, val, Y = min_norm_point(f, np.zeros(f.ground.n))
        assert X <= Y and math.isfinite(val) and appended[-1] is False

    def test_the_loop_adds_no_float_with_builtin_sum(self, monkeypatch):
        # sum() over floats is compensated on Python >= 3.12, so a sum() in
        # Wolfe's loop or the set sums it calls would change its bits there
        def no_sum(*args):
            raise AssertionError("builtin sum() called")

        monkeypatch.setattr(sfm, "sum", no_sum, raising=False)
        monkeypatch.setattr(core, "sum", no_sum, raising=False)
        drops = []
        drop = sfm._drop
        monkeypatch.setattr(sfm, "_drop", lambda *args: drops.append(1) or drop(*args))
        rng = np.random.default_rng(103)
        for family in ("cut", "facility", "concave"):
            f = helpers.FAMILY_BUILDERS[family](rng, 12)
            for kind in range(3):
                w = _lattice_weights(rng, f, kind)
                X, val, Y = min_norm_point(f, w)
                assert (X, Y) == helpers.sfm_brute_force(f, w)[::2]
        assert drops  # Wolfe's loop ran, and dropped vertices
