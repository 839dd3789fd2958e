import math

import numpy as np
import pytest

from dsmin import (CostModel, Dataset, GroundSet, SetFunctionOracle,
                   build_objective, greedy_select, sub_sup, sup_sub, mod_mod, SolverOptions)
from dsmin.core import brute_force_minimize, check_submodular
from dsmin.featsel import (_run_lengths, conditional_entropy, empirical_entropy,
                           evaluate_cost, naive_bayes_cv, parse_sparse_dataset)

import helpers
from helpers import mutual_information


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@pytest.fixture
def dup_dataset():
    """Four rows, feature 2 an exact copy of the informative feature 1."""
    rows = np.array([[0, 0], [0, 0], [0, 0], [1, 1]])
    return Dataset(rows, np.array([0, 0, 1, 1]))


def synthetic_complementary(extra_dup=True):
    """Eight rows; features: strong a, complement b, duplicate of a, decoy, noise.

    The pair (a, b) determines the class; the decoy is conditionally
    independent of a given the class while b is strongly conditionally
    dependent on a, which is exactly where the factored greedy mis-scores.
    """
    C = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    a = np.array([0, 0, 0, 0, 1, 1, 1, 0])
    b = np.array([0, 0, 0, 0, 0, 0, 0, 1])
    e = a.copy()
    d = np.array([0, 0, 0, 1, 1, 1, 0, 0])
    n1 = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    n2 = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    cols = [a, b] + ([e] if extra_dup else []) + [d, n1, n2]
    return Dataset(np.stack(cols, axis=1), C)


def redundant_features(rng, rows, features):
    """Binary features for a binary class: a third noisy copies of the class,
    a third noisier copies of those, the rest unrelated noise."""
    y = rng.integers(0, 2, rows)
    k = features // 3
    X = np.empty((rows, features), dtype=np.int8)
    for j in range(features):
        if j < k:
            X[:, j] = y ^ (rng.random(rows) < 0.1 + 0.3 * j / max(k - 1, 1))
        elif j < 2 * k:
            X[:, j] = X[:, j - k] ^ (rng.random(rows) < 0.05 + 0.25 * (j - k) / max(k - 1, 1))
        else:
            X[:, j] = rng.random(rows) < 0.2 + 0.6 * (j - 2 * k) / max(features - 2 * k - 1, 1)
    return Dataset(X, y)


class TestParse:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 3:1 7:1\n0 1:1 8:0\n")
        ds = parse_sparse_dataset(str(p))
        assert ds.n_rows == 2 and ds.n_features == 8
        assert ds.rows[0].tolist() == [0, 0, 1, 0, 0, 0, 1, 0]
        assert ds.labels.tolist() == [1, 0]

    def test_skips_blank_and_comment_lines(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("# header\n1 2:1\n\n  # note\n0 1:1\n")
        ds = parse_sparse_dataset(str(p))
        assert ds.rows.tolist() == [[0, 1], [1, 0]] and ds.labels.tolist() == [1, 0]

    def test_file_of_comments_has_no_data_lines(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("# header\n\n# footer\n")
        with pytest.raises(ValueError, match="no data lines"):
            parse_sparse_dataset(str(p))

    def test_infers_width_from_max_index(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("-1 2:1\n+1 5:1\n")
        ds = parse_sparse_dataset(str(p))
        assert ds.n_features == 5
        assert sorted(ds.classes.tolist()) == [-1, 1]

    def test_whole_float_label_is_read_as_int(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1.0 1:1\n-2e0 2:1\n")
        assert parse_sparse_dataset(str(p)).labels.tolist() == [1, -2]

    @pytest.mark.parametrize("line,fragment", [
        ("x 1:1", "label"),
        ("1.7 1:1", "bad label '1.7'"),  # not truncated to class 1
        ("inf 1:1", "bad label 'inf'"),
        ("nan 1:1", "bad label 'nan'"),
        ("1 3:1 2:1", "increasing"),
        ("1 1:2", "binary"),
        ("1 1:one", "bad entry"),
    ])
    def test_malformed_lines_name_the_line(self, tmp_path, line, fragment):
        p = tmp_path / "bad.libsvm"
        p.write_text("1 1:1\n" + line + "\n")
        with pytest.raises(ValueError) as ei:
            parse_sparse_dataset(str(p))
        assert ":2:" in str(ei.value)
        assert fragment in str(ei.value)


class TestDataset:
    @pytest.mark.parametrize("rows,fragment", [
        ([[-1, 0], [1, 0], [0, 1]], "feature 1 holds a negative value -1"),
        ([[0, 0], [1, 0.5], [0, 1]], "feature 2 holds a non-integer value"),
        ([[0, 1], [1, float("nan")]], "feature 2 holds a non-integer value"),
        # too large for an int64 arity; rejected before any cast could wrap them
        ([[2**63 - 1, 0], [0, 1]], "feature 1 holds a value 9223372036854775807 that is too large"),
        (np.array([[2**63, 0], [0, 1]], dtype=np.uint64),
         "feature 1 holds a value 9223372036854775808 that is too large"),
        ([[2.0**63, 0], [0, 1]], r"feature 1 holds a value 9\.223372036854776e\+18 that is too large"),
        ([[1e300, 0], [0, 1]], r"feature 1 holds a value 1e\+300 that is too large"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_rejects_values_outside_the_codes(self, rows, fragment):
        with pytest.raises(ValueError, match=fragment):
            Dataset(np.array(rows), np.zeros(len(rows)))

    def test_rejects_rows_without_features(self):
        with pytest.raises(ValueError, match="dataset has no features"):
            Dataset(np.zeros((3, 0), dtype=np.int8), np.array([0, 1, 0]))

    @pytest.mark.parametrize("rows", [np.array([0, 1, 1]), np.zeros((0, 2), dtype=np.int8)],
                             ids=["one_dimensional", "no_rows"])
    def test_rejects_rows_that_are_not_a_non_empty_matrix(self, rows):
        with pytest.raises(ValueError, match="non-empty 2-D row matrix"):
            Dataset(rows, np.zeros(len(rows)))

    def test_rejects_too_few_labels(self):
        with pytest.raises(ValueError, match="one label per row"):
            Dataset(np.array([[0, 1], [1, 0]]), np.array([0]))

    def test_whole_float_values_are_stored_as_int64(self):
        ds = Dataset(np.array([[0.0, 2.0], [1.0, 0.0]]), np.array([0, 1]))
        assert ds.rows.dtype == np.int64 and ds.arity.tolist() == [2, 3]

    def test_later_changes_to_the_callers_arrays_do_not_reach_it(self):
        rng = np.random.default_rng(89)
        X = rng.integers(0, 3, (30, 4))
        y = rng.integers(0, 2, 30)
        ds = Dataset(X, y)
        reference = Dataset(X.copy(), y.copy())
        assert empirical_entropy(ds, {1}, 0.0) > 0  # cached before the change
        X[:, 0] = 0
        X[:, 1] = X[:, 2]
        y[:] = 1 - y
        y[0] = 5
        for A in ({1}, {1, 2}, {2, 3}, {1, 2, 3, 4}):
            for alpha in (0.0, 1.0):
                assert empirical_entropy(ds, A, alpha) == empirical_entropy(reference, A, alpha)
                assert (conditional_entropy(ds, A, alpha)
                        == conditional_entropy(reference, A, alpha))
            assert naive_bayes_cv(ds, A, folds=3) == naive_bayes_cv(reference, A, folds=3)


class TestEntropy:
    def test_uniform_binary_column(self):
        ds = Dataset(np.array([[0], [0], [1], [1]]), np.array([0, 0, 1, 1]))
        assert empirical_entropy(ds, {1}, 0.0) == pytest.approx(1.0)

    def test_constant_column(self):
        ds = Dataset(np.array([[0], [0], [0]]), np.array([0, 1, 0]))
        assert empirical_entropy(ds, {1}, 0.0) == 0.0

    def test_duplicate_columns_share_support(self):
        ds = Dataset(np.array([[0, 0], [0, 0], [1, 1], [1, 1]]), np.array([0, 0, 1, 1]))
        assert empirical_entropy(ds, {1, 2}, 0.0) == pytest.approx(1.0)

    def test_empty_set_is_zero(self):
        ds = Dataset(np.array([[0], [1]]), np.array([0, 1]))
        assert empirical_entropy(ds, frozenset(), 5.0) == 0.0

    def test_smoothing_shrinks_toward_uniform(self):
        ds = Dataset(np.array([[0]] * 9 + [[1]]), np.arange(10) % 2)
        h0 = empirical_entropy(ds, {1}, 0.0)
        h1 = empirical_entropy(ds, {1}, 1.0)
        assert h1 > h0

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(73)
        rows = rng.integers(0, 2, (40, 6))
        ds = Dataset(rows, rng.integers(0, 2, 40))
        for _ in range(20):
            A = frozenset(int(j) for j in range(1, 7) if rng.random() < 0.4)
            B = A | frozenset(int(j) for j in range(1, 7) if rng.random() < 0.4)
            assert empirical_entropy(ds, A, 0.0) <= empirical_entropy(ds, B, 0.0) + 1e-9


    def test_negative_smoothing_rejected(self):
        ds = Dataset(np.array([[0, 1], [1, 0], [1, 1]]), np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="smoothing"):
            empirical_entropy(ds, {1, 2}, -1.0)
        with pytest.raises(ValueError, match="smoothing"):
            conditional_entropy(ds, {1, 2}, -1.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), True, "0.1",
                                       None, pytest.param(10 ** 400, id="huge_int")])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_smoothing_rejected(self, alpha):
        ds = Dataset(np.array([[0, 1], [1, 0], [1, 1]]), np.array([0, 1, 0]))
        message = "smoothing must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            empirical_entropy(ds, {1, 2}, alpha)
        with pytest.raises(ValueError, match=message):
            conditional_entropy(ds, {1, 2}, alpha)
        with pytest.raises(ValueError, match=message):
            naive_bayes_cv(ds, {1, 2}, folds=2, alpha=alpha)

    @pytest.mark.parametrize("code", [
        [7], [3] * 9, [5, 0, 9, 2], [2 ** 63 - 2, 0, 2 ** 63 - 2, 0, 0, 1],
        np.random.default_rng(97).integers(0, 6, 200)])
    def test_run_lengths_match_unique_counts(self, code):
        code = np.array(code, dtype=np.int64)
        expected = np.unique(code, return_counts=True)[1]
        assert _run_lengths(code.copy()).tolist() == expected.tolist()

    def test_row_codes_match_row_sort_bit_for_bit(self):
        """Both entropies equal, with ==, those of the counts a sort of the rows
        gives, on narrow data and on data wide enough to re-code the codes."""
        rng = np.random.default_rng(2051)
        cases = []
        for dtype in (np.int8, np.uint8, np.int64, np.float64):
            for top in (2, 3, 4, 5):
                for n_classes in (1, 2, 3):
                    arity = rng.integers(2, top + 1, 7)
                    pool = rng.integers(0, arity, (12, 7))  # repeated rows
                    rows = np.vstack([pool[rng.integers(0, 12, 40)],
                                      rng.integers(0, arity, (20, 7))]).astype(dtype)
                    cases.append(Dataset(rows, rng.integers(0, n_classes, 60)))
        for arity, width in ((2, 70), (5, 30)):
            pool = rng.integers(0, arity, (15, width), dtype=np.int8)
            cases.append(Dataset(pool[rng.integers(0, 15, 50)], rng.integers(0, 2, 50)))
            assert math.prod(int(a) for a in cases[-1].arity) >= 2 ** 63
        for ds in cases:
            n = ds.n_features
            subsets = [frozenset(range(1, n + 1)), frozenset({n})] + [
                frozenset(int(j) + 1 for j in rng.choice(n, rng.integers(1, n + 1),
                                                          replace=False))
                for _ in range(4)]
            for A in subsets:
                for alpha in (0.0, 0.3, 1.0):
                    joint, cond = helpers.row_sort_entropies(ds, A, alpha)
                    assert empirical_entropy(ds, A, alpha) == joint
                    assert conditional_entropy(ds, A, alpha) == cond


class TestMutualInformation:
    def test_self_information(self):
        ds = Dataset(np.array([[0], [0], [1], [1]]), np.array([0, 0, 1, 1]))
        assert mutual_information(ds, {1}, 0.0) == pytest.approx(
            empirical_entropy(ds, {1}, 0.0))

    def test_independent_by_design(self):
        ds = Dataset(np.array([[0], [0], [1], [1]]), np.array([0, 1, 0, 1]))
        assert mutual_information(ds, {1}, 0.0) == pytest.approx(0.0)

    def test_duplicate_feature(self, dup_dataset):
        i1 = mutual_information(dup_dataset, {1}, 0.0)
        i12_nf = mutual_information(dup_dataset, {1, 2}, 0.0, "non_factored")
        i12_f = mutual_information(dup_dataset, {1, 2}, 0.0, "factored")
        assert i12_nf == pytest.approx(i1)          # duplicate adds nothing
        assert i12_f < i12_nf - 0.1                 # factored double-counts H(.|C)
        h_cond = conditional_entropy(dup_dataset, {1}, 0.0)
        assert i12_f == pytest.approx(
            empirical_entropy(dup_dataset, {1, 2}, 0.0) - 2 * h_cond)

    def test_nonnegative_at_zero_smoothing(self):
        rng = np.random.default_rng(75)
        rows = rng.integers(0, 2, (30, 5))
        ds = Dataset(rows, rng.integers(0, 3, 30))
        for _ in range(20):
            A = frozenset(int(j) for j in range(1, 6) if rng.random() < 0.5)
            assert mutual_information(ds, A, 0.0) >= -1e-9

    def test_bad_mode(self):
        ds = Dataset(np.array([[0], [1]]), np.array([0, 1]))
        with pytest.raises(ValueError):
            mutual_information(ds, {1}, 0.0, "other")


class TestCostModel:
    def test_partition_sqrt_examples(self):
        cm = CostModel.partition_sqrt([[1, 2], [3]], [1.0, 1.0, 1.0], 1.0)
        assert evaluate_cost(cm, {1, 2}) == pytest.approx(math.sqrt(2))
        assert evaluate_cost(cm, frozenset()) == 0.0
        assert evaluate_cost(cm, {1, 3}) == pytest.approx(2.0)

    def test_modular_cardinality(self):
        cm = CostModel.modular_cardinality(0.5)
        assert evaluate_cost(cm, {1, 2, 3}) == pytest.approx(1.5)

    def test_partition_sqrt_is_submodular(self):
        rng = np.random.default_rng(77)
        for n, blocks in [(4, [[1, 2], [3, 4]]), (6, [[1, 2, 3], [4], [5, 6]])]:
            w = rng.uniform(0.1, 2.0, n)
            cm = CostModel.partition_sqrt(blocks, w, 1.0)
            oracle = SetFunctionOracle(GroundSet(n), lambda S, c=cm: evaluate_cost(c, S))
            assert check_submodular(oracle)

    def test_features_outside_the_blocks_have_no_cost(self):
        cm = CostModel.partition_sqrt([[1, 2]], [1.0, 1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="outside all cost blocks"):
            evaluate_cost(cm, {1, 3})

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel.partition_sqrt([[1], [1]], [1.0], 1.0)
        with pytest.raises(ValueError):
            CostModel("other", 1.0)
        with pytest.raises(ValueError, match="partition_sqrt needs blocks"):
            CostModel("partition_sqrt", 1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0, True, "0.5", None])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            CostModel.modular_cardinality(lam)
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            CostModel.partition_sqrt([[1, 2]], [1.0, 1.0], lam)
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            CostModel("modular_cardinality", lam)

    def test_lambda_is_stored_as_a_float(self):
        assert type(CostModel.modular_cardinality(1).lam) is float
        assert type(CostModel("modular_cardinality", np.float64(0.5)).lam) is float

    @pytest.mark.parametrize("w", [math.nan, math.inf, -1.0, True, "1.5"])
    def test_rejects_bad_partition_weights(self, w):
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            CostModel.partition_sqrt([[1, 2]], [1.0, w], 1.0)

    def test_hand_built_weights_are_checked_and_stored_as_floats(self):
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            CostModel("partition_sqrt", 1.0, (frozenset({1, 2}),), (1.0, True))
        cm = CostModel("partition_sqrt", 1.0, (frozenset({1, 2}),), (1, np.float64(2.5)))
        assert cm.weights == (1.0, 2.5) and all(type(w) is float for w in cm.weights)


class TestObjective:
    def test_zero_cost_is_negated_mutual_information(self):
        ds = synthetic_complementary()
        obj = build_objective(ds, CostModel.modular_cardinality(0.0), 0.0)
        for A in ({1}, {1, 2}, {2, 4}):
            assert obj.value(A) == pytest.approx(-mutual_information(ds, A, 0.0))
        assert obj.value(frozenset()) == 0.0

    def test_perfect_feature_is_selected(self):
        rng = np.random.default_rng(79)
        C = rng.integers(0, 2, 24)
        cols = [C.copy()] + [rng.integers(0, 2, 24) for _ in range(5)]
        ds = Dataset(np.stack(cols, axis=1), C)
        obj = build_objective(ds, CostModel.modular_cardinality(0.01), 0.0)
        best, _ = brute_force_minimize(obj.instance.v_oracle())
        assert 1 in best

    def test_huge_cost_selects_nothing(self):
        ds = synthetic_complementary()
        obj = build_objective(ds, CostModel.modular_cardinality(50.0), 0.0)
        best, val = brute_force_minimize(obj.instance.v_oracle())
        assert best == frozenset() and val == 0.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="factored or non_factored"):
            build_objective(synthetic_complementary(), CostModel.modular_cardinality(0.1),
                            mode="joint")

    def test_blocks_must_cover_every_feature(self):
        ds = synthetic_complementary()
        blocks = [list(range(1, ds.n_features))]  # the last feature is in no block
        cost = CostModel.partition_sqrt(blocks, [1.0] * ds.n_features, 0.1)
        with pytest.raises(ValueError, match="cover every feature"):
            build_objective(ds, cost)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_one_cost_weight_per_feature(self, extra):
        ds = synthetic_complementary()
        blocks = [list(range(1, ds.n_features + 1))]
        cost = CostModel.partition_sqrt(blocks, [1.0] * (ds.n_features + extra), 0.1)
        with pytest.raises(ValueError, match="cost weights for"):
            build_objective(ds, cost)
        for mode in ("grf", "grnf"):
            with pytest.raises(ValueError, match="cost weights for"):
                greedy_select(ds, cost, mode)


class TestGreedySelect:
    def test_huge_rate_selects_nothing(self):
        ds = synthetic_complementary()
        for mode in ("GrF", "GrNF"):
            S, _ = greedy_select(ds, CostModel.modular_cardinality(50.0), mode, alpha=0.0)
            assert S == frozenset()

    def test_informative_feature_first(self):
        ds = synthetic_complementary()
        for mode in ("GrF", "GrNF"):
            _, trace = greedy_select(ds, CostModel.modular_cardinality(0.01), mode,
                                     budget=1, alpha=0.0)
            assert trace.iterates[1].set == frozenset({1})

    def test_duplicate_refused_by_nonfactored_and_factored(self):
        # the duplicate has zero marginal information, so GrNF refuses it;
        # GrF double-counts its conditional entropy and refuses it even harder
        ds = synthetic_complementary(extra_dup=True)
        lam = 0.06
        grnf, _ = greedy_select(ds, CostModel.modular_cardinality(lam), "GrNF", alpha=0.0)
        assert 1 in grnf and 3 not in grnf
        grf, _ = greedy_select(ds, CostModel.modular_cardinality(lam), "GrF", alpha=0.0)
        assert 3 not in grf

    def test_factored_greedy_strictly_worse_here(self):
        ds = synthetic_complementary()
        lam = 0.06
        cost = CostModel.modular_cardinality(lam)
        obj = build_objective(ds, cost, 0.0)
        grf, _ = greedy_select(ds, cost, "GrF", alpha=0.0)
        grnf, _ = greedy_select(ds, cost, "GrNF", alpha=0.0)
        assert grnf == frozenset({1, 2})
        assert obj.value(grnf) < obj.value(grf) - 0.1

    def test_nonfactored_tie_goes_to_lower_index(self):
        # reordered so that features 2 and 4 are the same column: equal values, 2 wins
        ds = synthetic_complementary(extra_dup=True)
        ds = Dataset(ds.rows[:, [3, 0, 1, 2, 4, 5]], ds.labels)
        S, trace = greedy_select(ds, CostModel.modular_cardinality(0.01), "GrNF", alpha=0.0)
        assert trace.iterates[1].set == frozenset({2})
        assert 4 not in S

    def test_budget_respected(self):
        ds = synthetic_complementary()
        S, _ = greedy_select(ds, CostModel.modular_cardinality(0.001), "GrNF",
                             budget=2, alpha=0.0)
        assert len(S) <= 2

    def test_bad_mode(self):
        ds = synthetic_complementary()
        with pytest.raises(ValueError):
            greedy_select(ds, CostModel.modular_cardinality(0.1), "greedy")

    def test_negative_budget_rejected(self):
        ds = synthetic_complementary()
        with pytest.raises(ValueError, match="budget"):
            greedy_select(ds, CostModel.modular_cardinality(0.1), "GrNF", budget=-3)

    @pytest.mark.parametrize("budget", [2.5, True, "2"])
    def test_budget_must_be_whole(self, budget):
        ds = synthetic_complementary()
        with pytest.raises(ValueError, match="budget must be an integer"):
            greedy_select(ds, CostModel.modular_cardinality(0.1), "GrNF", budget=budget)


class TestNaiveBayes:
    def test_label_copy_feature_is_perfect(self):
        rng = np.random.default_rng(81)
        C = rng.integers(0, 2, 40)
        rows = np.stack([C, rng.integers(0, 2, 40)], axis=1)
        ds = Dataset(rows, C)
        assert naive_bayes_cv(ds, {1}, folds=5, alpha=1.0) == pytest.approx(1.0)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(83)
        rows = rng.integers(0, 2, (60, 4))
        labels = (rows[:, 0] ^ rng.integers(0, 2, 60, dtype=rows.dtype)).astype(int)
        ds = Dataset(rows, labels)
        a = naive_bayes_cv(ds, {1, 2}, folds=4, alpha=1.0, seed=9)
        b = naive_bayes_cv(ds, {1, 2}, folds=4, alpha=1.0, seed=9)
        assert a == b

    def test_requires_nonempty_features(self):
        ds = synthetic_complementary()
        with pytest.raises(ValueError):
            naive_bayes_cv(ds, frozenset())

    def test_folds_must_be_whole(self):
        ds = synthetic_complementary()
        with pytest.raises(ValueError, match="folds must be an integer"):
            naive_bayes_cv(ds, {1}, folds=2.5)
        assert naive_bayes_cv(ds, {1}, folds=2.0) == naive_bayes_cv(ds, {1}, folds=2)
        with pytest.raises(ValueError, match="folds must be >= 2"):
            naive_bayes_cv(ds, {1}, folds=1)

    def test_folds_left_empty_are_skipped(self):
        # two rows per class: a third fold gets no rows, and the first two
        # are the folds of a two-fold run
        ds = Dataset(np.array([[0], [1], [1], [0]]), np.array([0, 0, 1, 1]))
        assert naive_bayes_cv(ds, {1}, folds=3) == naive_bayes_cv(ds, {1}, folds=2)

    def test_handles_rare_class_without_error(self):
        rows = np.array([[0], [1], [0], [1], [1]])
        labels = np.array([0, 0, 0, 0, 1])  # class 1 missing from most folds
        ds = Dataset(rows, labels)
        acc = naive_bayes_cv(ds, {1}, folds=3, alpha=1.0)
        assert 0.0 <= acc <= 1.0


class TestSolversOnObjective:
    def test_ds_solvers_reach_good_objective(self):
        ds = synthetic_complementary()
        cost = CostModel.modular_cardinality(0.06)
        obj = build_objective(ds, cost, 0.0)
        _, best = brute_force_minimize(obj.instance.v_oracle())
        grf, _ = greedy_select(ds, cost, "GrF", alpha=0.0)
        grf_val = obj.value(grf)
        for solver in (sub_sup, sup_sub, mod_mod):
            tr = solver(obj.instance, SolverOptions(seed=11))
            assert tr.final_value < grf_val - 0.1
            assert tr.final_value >= best - 1e-9

    @pytest.mark.parametrize("mode", ["factored", "non_factored"])
    def test_unsmoothed_objective_is_a_difference_of_submodular_functions(self, mode):
        rng = np.random.default_rng(151)
        for n in (1, 4, 7, 10):
            y = rng.integers(0, 2, 200)
            rows = (rng.integers(0, 3, (200, n)) + y[:, None] * rng.integers(0, 2, n)) % 3
            half = (n + 1) // 2
            blocks = [range(1, half + 1)] + ([range(half + 1, n + 1)] if n > 1 else [])
            for cost in (CostModel.modular_cardinality(0.1),
                         CostModel.partition_sqrt(blocks, rng.uniform(0.0, 2.0, n), 0.1)):
                obj = build_objective(Dataset(rows, y), cost, 0.0, mode)
                assert check_submodular(obj.instance.f)
                assert check_submodular(obj.instance.g)

    def test_mod_mod_ends_locally_optimal_with_smoothing(self):
        # with alpha = 1 neither entropy is submodular, so the modular bounds
        # are not bounds and mod-mod's sweep misses adding feature 3 at {1}
        ds = redundant_features(np.random.default_rng(148), 100, 6)
        obj = build_objective(ds, CostModel.modular_cardinality(0.01), 1.0)
        assert not check_submodular(obj.instance.g)
        tr = mod_mod(obj.instance)
        assert tr.termination == "converged"
        assert tr.locally_optimal
