"""Descent procedures for minimizing a difference of two submodular functions.

Three majorize-and-minimize loops over v = f - g, differing in which side
gets replaced by a tight modular bound at the current iterate:

* ``sub_sup``  keeps f and lower-bounds g; each step is an exact submodular
  minimization of the surrogate (minimum-norm point).
* ``sup_sub``  upper-bounds f and keeps g; each step approximately maximizes
  the submodular g - m (double greedy, or a cardinality greedy under a size
  cap, polished by local search).
* ``mod_mod``  bounds both sides; each step minimizes a plain modular
  function, optionally under a combinatorial constraint.

All three accept a step only if the objective does not increase, which
makes every trace monotone regardless of how rough the inner solver is.
A step must additionally clear the multiplicative improvement gate of the
epsilon-approximate rule (``accept_step``).  Moves to a different set of
exactly equal value are taken at most once each (never revisiting a set
since the last strict decrease), which lets the bound-based procedures
walk off weak plateaus without losing termination.

On a stall each procedure retries a linear-size family of permutations
and/or bound variants before declaring convergence.  When f and g are
submodular that family certifies that no single-element change improves v.
Otherwise the bounds are not bounds and the family can miss an improving
change, so an unconstrained run that would stop as converged first scans
the single-element additions and deletions of its final set and moves to
the best one that lowers v.  Converged unconstrained runs therefore end at
a local minimum whatever the oracles.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .bounds import Permutation, modular_lower_bound, modular_upper_bound
from .constraints import (Constraint, modular_maximal_minimizer,
                          modular_minimize_constrained)
from .core import (EQ_TOL, FLOAT_TOL, GroundSet, MemoizedOracle, SetFunctionOracle, best_flip,
                   mask_of, nonnegative, subset_key, whole)
from .sfm import min_norm_point
from .sfmax import DG_MODES, double_greedy, greedy_cardinality_max, local_search_max

HEURISTICS = ("random", "g_gain", "v_gain")
UB_STRATEGIES = ("best_of_both", "alternate")


class SolverError(RuntimeError):
    """Inner-solver failure; carries the partial trace accumulated so far."""

    def __init__(self, message: str, trace: "OptimizationTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass
class DSInstance:
    """A pair (f, g) of normalized submodular oracles over one ground set."""

    f: SetFunctionOracle
    g: SetFunctionOracle

    def __post_init__(self):
        if self.f.ground.n != self.g.ground.n:
            raise ValueError("f and g must share a ground set")
        for name, o in (("f", self.f), ("g", self.g)):
            v0 = o(frozenset())
            if not abs(v0) <= FLOAT_TOL:  # also rejects NaN
                raise ValueError(f"{name} must be finite and normalized: "
                                 f"value at empty set is {v0!r}")

    @property
    def ground(self) -> GroundSet:
        return self.f.ground

    def value(self, X: Iterable[int]) -> float:
        return self.f(X) - self.g(X)

    def v_oracle(self) -> SetFunctionOracle:
        """The difference f - g as a plain oracle (counts land on f and g)."""
        return SetFunctionOracle(self.ground, lambda S: self.f(S) - self.g(S), name="v")


@dataclass
class SolverOptions:
    """Knobs shared by the three procedures."""

    epsilon: float = 0.0
    max_iters: int = 200
    heuristic: str = "g_gain"
    ub_strategy: str = "best_of_both"
    seed: int = 0
    dg_mode: str = "deterministic"

    def __post_init__(self):
        self.epsilon = nonnegative(self.epsilon, "epsilon")
        self.max_iters = whole(self.max_iters, "max_iters", 1)
        self.seed = whole(self.seed, "seed", 0)
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"heuristic must be one of {HEURISTICS}")
        if self.ub_strategy not in UB_STRATEGIES:
            raise ValueError(f"ub_strategy must be one of {UB_STRATEGIES}")
        if self.dg_mode not in DG_MODES:
            raise ValueError(f"dg_mode must be one of {DG_MODES}")


@dataclass
class TracePoint:
    set: frozenset
    value: float
    oracle_calls: int
    elapsed: float


@dataclass
class OptimizationTrace:
    """Accepted iterates of one solver run, plus how and why it stopped."""

    algorithm: str
    seed: int
    epsilon: float
    iterates: list[TracePoint] = field(default_factory=list)
    termination: str = "iter_cap"      # converged | epsilon_stop | iter_cap
    locally_optimal: bool | None = None
    oracle_calls: int = 0              # with elapsed: run totals at termination
    elapsed: float = 0.0

    @property
    def final_point(self) -> TracePoint:
        # canonical best: the minimum value is reached by the tail of the
        # (non-increasing) trace; ties break by cardinality then lexicographic
        best = min(p.value for p in self.iterates)
        ties = [p for p in self.iterates if p.value <= best + EQ_TOL]
        return min(ties, key=lambda p: subset_key(p.set))

    @property
    def final_set(self) -> frozenset:
        return self.final_point.set

    @property
    def final_value(self) -> float:
        return self.final_point.value

    @property
    def n_accepted(self) -> int:
        return len(self.iterates) - 1

    def values(self) -> list[float]:
        return [p.value for p in self.iterates]

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "termination": self.termination,
            "locally_optimal": self.locally_optimal,
            "final": {
                "set": sorted(self.final_set),
                "value": self.final_value,
                "iterations": self.n_accepted,
                "oracle_calls": self.oracle_calls,
            },
            "iterates": [
                {"set": sorted(p.set), "value": p.value, "oracle_calls": p.oracle_calls}
                for p in self.iterates
            ],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("iteration,value,oracle_calls,millis\n")
            for i, p in enumerate(self.iterates):
                fh.write(f"{i},{p.value!r},{p.oracle_calls},{p.elapsed * 1000.0:.3f}\n")


def accept_step(v_prev: float, v_next: float, epsilon: float) -> bool:
    """Multiplicative sufficient-improvement gate for one step.

    Negative current value: require v_next <= v_prev * (1 + epsilon).
    Zero current value: require a strict decrease below zero.  Positive
    current value (possible under constraints): require a decrease of at
    least epsilon * |v_prev|.
    """
    epsilon = nonnegative(epsilon, "epsilon")
    if v_prev < 0.0:
        return v_next <= v_prev * (1.0 + epsilon)
    if v_prev == 0.0:
        return v_next < 0.0
    return v_next <= v_prev - epsilon * abs(v_prev)


def local_optimality_check(v, X: Iterable[int]) -> bool:
    """True iff no single-element addition or deletion decreases v at X by more
    than FLOAT_TOL; v is a memo (``memoized``) or a solve's f - g, read by
    ``best_flip`` over v's ground set."""
    return best_flip(v, frozenset(X), FLOAT_TOL) is None


def choose_permutation(heuristic: str, X_t: Iterable[int], scorer,
                       rng: np.random.Generator) -> Permutation:
    """A chain through the scorer's ground set that contains X_t, ordered per
    the heuristic: a plain tuple of 1..n, which ``modular_lower_bound`` checks.

    Gain heuristics place the members of X_t first, sorted by decreasing
    within-gain scorer(j | X_t - j), followed by the outside elements by
    decreasing add-gain scorer(j | X_t); ties break toward the lower index.
    The scorer is a memo (``memoized``) or a solve's f - g, read at X_t and
    its flips by its keyed reads.  ``random`` shuffles the two segments
    uniformly with draws from rng.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"heuristic must be one of {HEURISTICS}")
    ground = scorer.ground
    X = ground.check_subset(X_t)
    if heuristic == "random":
        return _shuffled_chain(X, ground.n, rng)
    key = mask_of(X)
    base = scorer.at(key, X)
    change = {j: scorer.flip(X, key, j) - base for j in ground.elements()}
    inside = sorted(X, key=lambda j: (change[j], j))
    outside = sorted(ground.full - X, key=lambda j: (-change[j], j))
    return tuple(inside + outside)


def _shuffled_chain(X: frozenset, n: int, rng: np.random.Generator,
                    j: int | None = None) -> Permutation:
    """Uniformly shuffled X, then j if given, then the shuffled rest of 1..n.

    Each sorted list is shuffled in place, with the draws of
    ``rng.permutation`` on it; shuffling 0 or 1 elements draws nothing."""
    pin = set() if j is None else {j}
    inside = sorted(X - pin)
    outside = sorted(set(range(1, n + 1)) - X - pin)
    rng.shuffle(inside)
    rng.shuffle(outside)
    return tuple(inside + list(pin) + outside)


# -- shared descent driver ------------------------------------------------------


class _Run:
    def __init__(self, algo: str, inst: DSInstance, opts: SolverOptions,
                 constraint: Constraint):
        self.algo = algo
        self.opts = opts
        self.constraint = constraint
        self.ground = inst.ground
        # a fresh memo per solve, so a trace counts its own distinct calls
        self.f, self.g = MemoizedOracle(inst.f), MemoizedOracle(inst.g)
        self.rng = np.random.default_rng(opts.seed)
        self.t0 = time.perf_counter()

    def value(self, S: frozenset) -> float:
        return self.at(mask_of(S), S)

    # f - g by the memos' keyed reads, one key for both
    def at(self, key: int, S: frozenset) -> float:
        return self.f.at(key, S) - self.g.at(key, S)

    def flip(self, X: frozenset, key: int, j: int) -> float:
        return self.f.flip(X, key, j) - self.g.flip(X, key, j)

    def calls(self) -> int:
        return self.f.call_count + self.g.call_count

    def point(self, S: frozenset) -> TracePoint:
        return TracePoint(S, self.value(S), self.calls(),
                          time.perf_counter() - self.t0)

    def chain(self, X: frozenset, heuristic: str | None = None) -> Permutation:
        heuristic = heuristic or self.opts.heuristic
        scorer = self if heuristic == "v_gain" else self.g
        return choose_permutation(heuristic, X, scorer, self.rng)

    def pinned_chains(self, X: frozenset) -> Iterator[Permutation]:
        return (_shuffled_chain(X, self.ground.n, self.rng, j) for j in self.ground.elements())


def _descent(run: _Run, start: frozenset, primary, sweep) -> OptimizationTrace:
    opts = run.opts
    trace = OptimizationTrace(run.algo, opts.seed, opts.epsilon)
    X = start
    trace.iterates.append(run.point(X))
    plateau_seen = {X}

    try:
        t = 0
        while True:
            v_cur = run.value(X)
            move = None
            move_is_strict = False
            eps_blocked = False
            plateau_pool: list[frozenset] = []
            for phase in (primary, sweep):
                strict: list[tuple[float, frozenset]] = []
                for cand in phase(X, t):
                    if cand == X or not run.constraint.is_feasible(cand):
                        continue
                    val = run.value(cand)
                    if val < v_cur - EQ_TOL:
                        if accept_step(v_cur, val, opts.epsilon):
                            strict.append((val, cand))
                        else:
                            eps_blocked = True
                    elif abs(val - v_cur) <= EQ_TOL:
                        plateau_pool.append(cand)
                if strict:
                    _, move = min(strict, key=lambda p: (p[0], subset_key(p[1])))
                    move_is_strict = True
                    break
            # the raw non-increase rule v_next <= v_prev*(1+eps) admits
            # equal-value moves exactly when eps == 0 or the current value is 0
            if move is None and (opts.epsilon == 0.0 or v_cur == 0.0):
                fresh = [c for c in plateau_pool if c not in plateau_seen]
                if fresh:
                    move = min(fresh, key=subset_key)
            if move is None and not eps_blocked and run.constraint.kind == "none":
                # the sweeps miss improving flips when f or g is not submodular;
                # when it finds none, this scan is also the final check below
                flip = best_flip(run, trace.final_set, FLOAT_TOL)
                if flip is not None:
                    if accept_step(v_cur, run.value(flip), opts.epsilon):
                        move, move_is_strict = flip, True
                    else:
                        eps_blocked = True
            if move is None:
                trace.termination = "epsilon_stop" if eps_blocked else "converged"
                break
            if move_is_strict:
                plateau_seen = {move}
            else:
                plateau_seen.add(move)
            X = move
            trace.iterates.append(run.point(X))
            t += 1
            if t >= opts.max_iters:
                trace.termination = "iter_cap"
                break
    except Exception as exc:
        raise SolverError(f"{run.algo} inner solver failed: {exc}", trace) from exc

    if run.constraint.kind == "none":
        # converging means the final scan above found no flip
        trace.locally_optimal = (trace.termination == "converged"
                                 or local_optimality_check(run, trace.final_set))
    trace.oracle_calls, trace.elapsed = run.calls(), time.perf_counter() - run.t0
    return trace


# -- the three procedures --------------------------------------------------------


def _variants(strategy: str, t: int) -> tuple[int, ...]:
    if strategy == "best_of_both":
        return (1, 2)
    return (1,) if t % 2 == 0 else (2,)


def sub_sup(inst: DSInstance, opts: SolverOptions | None = None,
            constraint: Constraint = Constraint.none()) -> OptimizationTrace:
    """Descend on v = f - g by exactly minimizing f minus a lower bound of g.

    Starting from the empty set, each iteration picks a permutation chain
    through the current set (by the configured heuristic; a tuple of 1..n
    that ``modular_lower_bound`` checks), builds the tight modular lower
    bound of g along it, and minimizes the submodular surrogate exactly.  On
    a stall, the gain-ordered permutation not used by the configured
    heuristic (both, for ``random``) plus one boundary-pinned random
    permutation per element are retried.  For submodular f and g that
    certifies local optimality; for any other pair the final single-element
    scan of the descent guarantees it on convergence.  Each SFM yields the
    surrogate's minimal and maximal minimizers.  No constraints.
    """
    opts = opts or SolverOptions()
    if constraint.kind != "none":
        raise ValueError(f"sub_sup supports no constraint, got {constraint.kind!r}")
    run = _Run("subsup", inst, opts, constraint)

    def candidates(X: frozenset, sigma: Permutation) -> list[frozenset]:
        X_min, _, X_max = min_norm_point(run.f, modular_lower_bound(run.g, X, sigma).weights)
        return [X_min, X_max]

    def primary(X, t):
        return candidates(X, run.chain(X))

    def sweep(X, t):
        # primary has just solved the configured heuristic's chain at X
        gains = (run.chain(X, h) for h in ("g_gain", "v_gain") if h != opts.heuristic)
        return [S for sigma in itertools.chain(gains, run.pinned_chains(X))
                for S in candidates(X, sigma)]

    return _descent(run, frozenset(), primary, sweep)


def sup_sub(inst: DSInstance, opts: SolverOptions | None = None,
            constraint: Constraint = Constraint.none()) -> OptimizationTrace:
    """Descend on v = f - g by approximately maximizing g minus an upper bound of f.

    Supports no constraint or a cardinality cap.  Each step maximizes
    g - m, m the tight modular upper bound of f at the current set: the
    ``sfmax`` maximizers get the run's memo of g and m's weights, so m is
    never summed over a set.  The inner maximizer is double greedy (2n + 2
    reads of g; a cardinality greedy when capped, so a cap refuses
    ``dg_mode="randomized"``) polished by local search over feasible moves;
    a candidate is taken only if v does not increase.  On a stall both
    upper-bound variants are retried and then the full one-element
    neighborhood is scanned, realizing the local-optimality conditions the
    two bound variants certify on single deletions and additions.  Unless
    double greedy draws from the rng, the retry reuses the sets primary has
    just found at the same set and variant.
    """
    opts = opts or SolverOptions()
    if constraint.kind not in ("none", "cardinality_le"):
        raise ValueError(f"sup_sub supports none or cardinality_le constraints, "
                         f"got {constraint.kind!r}")
    if constraint.kind == "cardinality_le" and opts.dg_mode == "randomized":
        raise ValueError("sup_sub under a cardinality_le cap reads no dg_mode: "
                         "its capped step is a greedy, not double greedy")
    constraint.validate(inst.ground.n)
    run = _Run("supsub", inst, opts, constraint)

    def maximize(X: frozenset, variant: int) -> frozenset:
        w = modular_upper_bound(run.f, X, variant).weights.tolist()
        if constraint.kind == "cardinality_le":
            start = greedy_cardinality_max(run.g, w, constraint.k)
            return local_search_max(run.g, w, start, constraint.is_feasible)
        seed = int(run.rng.integers(2 ** 31)) if opts.dg_mode == "randomized" else None
        return local_search_max(run.g, w, double_greedy(run.g, w, opts.dg_mode, seed))

    if opts.dg_mode == "deterministic":
        maximize = functools.lru_cache(maxsize=2)(maximize)  # no rng draw to keep

    def primary(X, t):
        return [maximize(X, v) for v in _variants(opts.ub_strategy, t)]

    def sweep(X, t):
        flips = [X - {j} if j in X else X | {j} for j in run.ground.elements()]
        return [maximize(X, v) for v in (1, 2)] + flips

    return _descent(run, frozenset(), primary, sweep)


def mod_mod(inst: DSInstance, opts: SolverOptions | None = None,
            constraint: Constraint = Constraint.none()) -> OptimizationTrace:
    """Descend on v = f - g by minimizing a fully modular surrogate each step.

    Both sides are replaced by tight modular bounds at the current set, the
    lower one along a chain (a tuple of 1..n that ``modular_lower_bound``
    checks), and the modular function with the upper bound's weights minus
    the lower bound's is minimized exactly, under any supported constraint.
    On a stall the procedure sweeps one permutation per element (pinning
    that element at the chain boundary) crossed with both upper-bound
    variants.  For submodular f and g that certifies local optimality; for
    any other pair the final single-element scan of the descent guarantees
    it on unconstrained convergence.  If the empty set is infeasible the run
    bootstraps from the constrained surrogate minimizer anchored at the
    empty set.  A lower bound is built once per permutation and an upper
    bound once per set and variant.
    """
    opts = opts or SolverOptions()
    constraint.validate(inst.ground.n)
    run = _Run("modmod", inst, opts, constraint)

    # both variants at the current set; the descent never returns to a set
    upper = functools.lru_cache(maxsize=2)(lambda X, v: modular_upper_bound(run.f, X, v))

    def candidates(X: frozenset, sigma: Permutation, variants) -> list[frozenset]:
        h = modular_lower_bound(run.g, X, sigma)
        out: list[frozenset] = []
        for v in variants:
            diff = upper(X, v).weights - h.weights
            best = modular_minimize_constrained(diff, constraint)
            alt = modular_maximal_minimizer(diff, constraint)
            out += [best] if alt is None or alt == best else [best, alt]
        return out

    def primary(X, t):
        return candidates(X, run.chain(X), _variants(opts.ub_strategy, t))

    def sweep(X, t):
        return [S for sigma in run.pinned_chains(X) for S in candidates(X, sigma, (1, 2))]

    start = frozenset()
    if not constraint.is_feasible(start):
        boot = list(filter(constraint.is_feasible, candidates(start, run.chain(start), (1, 2))))
        if not boot:
            raise SolverError("could not find a feasible starting point", None)
        start = min(boot, key=lambda S: (run.value(S), subset_key(S)))

    return _descent(run, start, primary, sweep)


SOLVERS = {"subsup": sub_sup, "supsub": sup_sub, "modmod": mod_mod}
# the tuning options each procedure reads; the others leave its trace unchanged
TUNING_READ = {"subsup": ("heuristic",), "supsub": ("ub_strategy", "dg_mode"),
               "modmod": ("heuristic", "ub_strategy")}
