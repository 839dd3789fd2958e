"""Shared random-instance generators and exhaustive reference helpers."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from dsmin import DSInstance, GroundSet, SetFunctionOracle, build_function
from dsmin.bounds import totally_normalize
from dsmin.core import (FLOAT_TOL, SUBMODULAR_CHECK_MAX_N, AffineModular, evaluate_table,
                        set_of, set_sum)
from dsmin.featsel import _entropy_from_counts, conditional_entropy, empirical_entropy
from dsmin.functions import modular_spec


def graph_cut_spec(n, edges):
    return {"kind": "graph_cut", "n": int(n), "edges": [list(e) for e in edges]}


def table_spec(n, values):
    return {"kind": "explicit_table", "n": int(n), "values": list(map(float, values))}


def sqrt_card(n, coeff=1.0):
    g = GroundSet(n)
    return SetFunctionOracle(g, lambda S: coeff * math.sqrt(len(S)), name=f"{coeff}sqrt")


def triangle_cut():
    return build_function(graph_cut_spec(3, [[1, 2], [1, 3], [2, 3]]))


def tri_instance(coeff=2.0):
    """The showcase pair: triangle cut minus a scaled sqrt of the cardinality."""
    return DSInstance(triangle_cut(), sqrt_card(3, coeff))


def random_modular(rng, n, lo=-2.0, hi=2.0):
    return build_function(modular_spec(rng.uniform(lo, hi, n)))


def random_concave(rng, n):
    shape = rng.choice(["sqrt", "log1p", "power"])
    spec = {"kind": "concave_of_modular", "shape": shape,
            "weights": rng.uniform(0.0, 2.0, n).tolist()}
    if shape == "power":
        spec["exponent"] = float(rng.uniform(0.3, 0.9))
    return build_function(spec)


def random_cut(rng, n):
    edges = []
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < 0.5:
            edges.append([u, v, float(rng.uniform(0.1, 2.0))])
    if not edges:
        edges = [[1, 2, 1.0]] if n >= 2 else []
    return build_function(graph_cut_spec(n, edges))


def random_facility(rng, n):
    rows = int(rng.integers(2, 5))
    B = rng.uniform(0.0, 2.0, (rows, n))
    return build_function({"kind": "facility_location", "benefits": B.tolist()})


def random_scaled_sum(rng, n):
    kids = [random_concave(rng, n), random_cut(rng, n)]
    coeffs = [float(rng.uniform(0.2, 1.5)) for _ in kids]
    g = GroundSet(n)
    return SetFunctionOracle(
        g, lambda S, ks=kids, cs=coeffs: float(sum(c * k._fn(S) for c, k in zip(cs, ks))),
        name="scaled_sum")


def random_table(rng, n):
    """A tabulated random submodular function: concave plus facility location."""
    values = evaluate_table(random_concave(rng, n)) + evaluate_table(random_facility(rng, n))
    return build_function(table_spec(n, values))


FAMILY_BUILDERS = {
    "modular": random_modular,
    "concave": random_concave,
    "cut": random_cut,
    "facility": random_facility,
    "scaled_sum": random_scaled_sum,
    "table": random_table,
}

NONNEG_FAMILIES = ("concave", "cut", "facility", "scaled_sum")


def random_submodular(rng, n, families=None):
    families = families or tuple(FAMILY_BUILDERS)
    fam = rng.choice(list(families))
    return FAMILY_BUILDERS[fam](rng, n)


def random_nonneg_submodular(rng, n):
    return random_submodular(rng, n, NONNEG_FAMILIES)


def random_ds_instance(rng, n, families=None):
    f = random_submodular(rng, n, families)
    g = random_submodular(rng, n, families)
    return DSInstance(f, g)


def all_subsets(n):
    elems = range(1, n + 1)
    for k in range(n + 1):
        for combo in itertools.combinations(elems, k):
            yield frozenset(combo)


def exhaustive_min(fn, n):
    """Independent brute-force oracle over a plain callable."""
    best_set, best_val = frozenset(), fn(frozenset())
    for S in all_subsets(n):
        val = fn(S)
        if val < best_val - 0.0:
            best_set, best_val = S, val
    return best_set, best_val


def exhaustive_max(fn, n):
    best_set, best_val = frozenset(), fn(frozenset())
    for S in all_subsets(n):
        val = fn(S)
        if val > best_val:
            best_set, best_val = S, val
    return best_set, best_val


def sfm_brute_force(f, w=None):
    """Exhaustive drop-in replacement for ``min_norm_point`` (small n).

    Returns ``(X, min of f - w, Y)`` with X the intersection and Y the union
    of the sets within ``FLOAT_TOL`` of the minimum: for submodular f, the
    minimal and the maximal minimizer.
    """
    if w is not None:
        weights = np.asarray(w, float).tolist()
        f = SetFunctionOracle(f.ground, lambda S, f=f: f(S) - set_sum(weights, S))
    table = evaluate_table(f)
    best = float(table.min())
    masks = np.flatnonzero(table <= best + FLOAT_TOL)
    n = f.ground.n
    return (set_of(int(np.bitwise_and.reduce(masks)), n), best,
            set_of(int(np.bitwise_or.reduce(masks)), n))


def check_monotone(f, tol=FLOAT_TOL):
    """Exhaustively test that adding any element never decreases f."""
    n = f.ground.n
    if n > SUBMODULAR_CHECK_MAX_N:
        raise ValueError(f"monotonicity check refused for n={n} > {SUBMODULAR_CHECK_MAX_N}")
    vals = evaluate_table(f)
    masks = np.arange(1 << n)
    for a in range(n):
        ba = 1 << a
        base = masks[(masks & ba) == 0]
        if np.any(vals[base | ba] < vals[base] - tol):
            return False
    return True


@dataclass
class TotalNormalization:
    """Instance-level normalization v = f' - g' + k of a difference f - g."""

    f_prime: SetFunctionOracle
    k: AffineModular
    g_prime: SetFunctionOracle


def totally_normalize_instance(f, g):
    f_prime, f_shift = totally_normalize(f)
    g_prime, g_shift = totally_normalize(g)
    return TotalNormalization(f_prime, AffineModular(0.0, f_shift.weights - g_shift.weights),
                              g_prime)


def _row_sort_counts(rows):
    """Counts of the distinct rows, in lexicographic row order, by sorting whole rows."""
    return np.unique(rows, axis=0, return_counts=True)[1]


def row_sort_entropies(ds, A, alpha):
    """H(X_A) and H(X_A | C) from counts taken by sorting the rows themselves.

    The reference that ``featsel``'s packed row codes must match bit for bit.
    """
    if not A:
        return 0.0, 0.0
    sub = ds.rows[:, sorted(j - 1 for j in A)]
    joint = _entropy_from_counts(_row_sort_counts(sub), alpha, len(sub))
    cond = 0.0
    for idx in ds._class_rows:
        counts = _row_sort_counts(sub[idx])
        cond += (len(idx) / ds.n_rows) * _entropy_from_counts(counts, alpha, len(idx))
    return joint, cond


def float64_generator_sum(w, S):
    """``sum()`` over the float64 entries ``w[j - 1]`` for j in S.

    How the modular and concave oracles and ``AffineModular.value`` summed a
    set before ``core.set_sum``; the reference it must match bit for bit.
    """
    return sum(w[j - 1] for j in S)


def gain(f, j, X):
    """Marginal value f(X + j) - f(X) of adding element j in context X.

    Costs exactly two oracle calls, or one call (returning 0) if j is
    already in X.
    """
    if not (isinstance(j, (int, np.integer)) and 1 <= j <= f.ground.n):
        raise ValueError(f"element {j!r} outside ground set 1..{f.ground.n}")
    S = f.ground.check_subset(X)
    if j in S:
        f(S)
        return 0.0
    return f(S | {j}) - f(S)


def epsilon_iteration_cap(lower_bound, first_value, epsilon):
    """Worst-case accepted-iteration count of an epsilon-approximate run.

    Each accepted step past the first shrinks a negative objective by the
    factor (1 + epsilon) while it can never drop below the certified lower
    bound, so at most ceil(ln(|bound| / |v1|) / ln(1 + epsilon)) + 1 steps
    are ever accepted.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0 for a finite cap")
    if first_value >= 0 or lower_bound >= 0:
        raise ValueError("cap defined for negative first value and lower bound")
    ratio = abs(lower_bound) / abs(first_value)
    return max(1, math.ceil(math.log(ratio) / math.log1p(epsilon))) + 1


def mutual_information(ds, A, alpha=0.0, mode="non_factored"):
    """Estimated I(X_A; C) in bits.

    ``non_factored`` subtracts the joint conditional entropy;
    ``factored`` subtracts the per-feature sum of conditional entropies
    instead (exact only when features are independent given the class).
    """
    if mode not in ("factored", "non_factored"):
        raise ValueError(f"mode must be factored or non_factored, got {mode!r}")
    A = ds.ground.check_subset(A)
    joint = empirical_entropy(ds, A, alpha)
    if mode == "non_factored":
        return joint - conditional_entropy(ds, A, alpha)
    return joint - sum(conditional_entropy(ds, frozenset({j}), alpha) for j in A)
