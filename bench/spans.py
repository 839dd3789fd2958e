"""Spans recorded from outside dsmin by wrapping public functions.

Each wrapper is installed at the name its caller looks up (for example
``dsmin.solvers.modular_lower_bound``, because ``solvers`` imports the
name directly) and restored afterwards.  A span holds its name, start,
end and parent; spans are kept in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable

import numpy as np

import dsmin.core
import dsmin.featsel
import dsmin.sfm
import dsmin.solvers

import workloads

# (owner, attribute, span name); a name of None is derived per call.
SPANNED = [
    (dsmin.core.AffineModular, "value", "core.affine_value"),
    (workloads.Counter, "__call__", None),
    (dsmin.featsel, "empirical_entropy", "featsel.entropy"),
    (dsmin.featsel, "conditional_entropy", "featsel.entropy"),
    (dsmin.solvers, "modular_lower_bound", "bounds.lower"),
    (dsmin.solvers, "modular_upper_bound", "bounds.upper"),
    (dsmin.solvers, "min_norm_point", "sfm.min_norm_point"),
    (dsmin.sfm, "greedy_base_vertex", "sfm.greedy_base_vertex"),
    (dsmin.solvers, "double_greedy", "sfmax.double_greedy"),
    (dsmin.solvers, "local_search_max", "sfmax.local_search_max"),
    (dsmin.solvers, "greedy_cardinality_max", "sfmax.greedy_cardinality_max"),
    (dsmin.solvers, "modular_minimize_constrained", "constraints.modular_minimize_constrained"),
    (dsmin.solvers, "modular_maximal_minimizer", "constraints.modular_maximal_minimizer"),
    (dsmin.solvers, "choose_permutation", "solvers.choose_permutation"),
    (dsmin.solvers, "local_optimality_check", "solvers.local_optimality_check"),
]


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.memo_lookups = 0
        self.memo_hits = 0
        self._memo_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn: Callable, name: str | Callable[[tuple], str]) -> Callable:
        """``fn`` wrapped to record one span per call."""
        fixed = None if callable(name) else self._name_id(name)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(fixed if fixed is not None else self._name_id(name(args)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _memo_call(self, fn: Callable) -> Callable:
        """Count lookups of the outermost memo only: where one memo wraps
        another (the featsel objective's oracles are memoized themselves),
        an outer miss is not also counted as an inner lookup."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(oracle, X):
            if tracer._memo_depth:
                return fn(oracle, X)
            before = oracle.call_count
            tracer._memo_depth += 1
            try:
                value = fn(oracle, X)
            finally:
                tracer._memo_depth -= 1
            tracer.memo_lookups += 1
            tracer.memo_hits += oracle.call_count == before
            return value

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for owner, attr, name in SPANNED:
            span_name = name or (lambda args: "functions." + args[0].label)
            self._patch(owner, attr, self.span(getattr(owner, attr), span_name))
        memo = dsmin.core.MemoizedOracle
        self._patch(memo, "__call__", self._memo_call(memo.__call__))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _own(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span: name id, parent index and self time (duration minus child spans)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, parent, dur - child

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time and count."""
        if not self.start:
            return {}, {}
        name, _, own = self._own()
        total = np.bincount(name, weights=own, minlength=len(self.names))
        count = np.bincount(name, minlength=len(self.names))
        return ({n: float(total[i]) for i, n in enumerate(self.names)},
                {n: int(count[i]) for i, n in enumerate(self.names)})

    def problems(self, roots: set[str], solve_s: float) -> list[str]:
        """What is wrong with the recorded spans, given the names that may
        appear at top level and the solve time measured around them."""
        if not self.start:
            return ["no spans recorded"]
        name, parent, own = self._own()
        out = []
        top = {self.names[i] for i in np.unique(name[parent < 0])}
        if not top <= roots:
            out.append(f"layer spans outside any solve: {sorted(top - roots)}")
        if own.min() < -1e-9:
            out.append("a span has negative self time")
        # Follows from the root check: the top-level spans are the solves.
        if abs(own.sum() / solve_s - 1.0) > 0.05:
            out.append("span self times do not sum to the traced solve time")
        return out


def current_attributes() -> dict:
    """The objects now at every attribute the tracer patches."""
    out = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in SPANNED}
    memo = dsmin.core.MemoizedOracle
    out[(memo, "__call__")] = memo.__dict__["__call__"]
    return out
