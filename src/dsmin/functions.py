"""Built-in set-function families and their JSON format.

Every family except ``explicit_table`` constructs a submodular oracle by
construction (validated parameter ranges); explicit tables can encode any
set function and are only checkable exhaustively.  All built oracles are
normalized so the empty set evaluates to 0.  Weights are summed over a set
by ``core.set_sum``: plain floats in the set's order, faster than numpy scalars
and with the same bits.  The builders pad their lists once at build time
with ``core.element_indexed``, so element j's weight is ``w[j]``.

A function spec is a plain dict, read from and written to JSON as it is.
:func:`build_function` passes its keys to the builder of its kind as keyword
arguments, so a missing or unknown key (``"exponant"``) is an error::

    {"kind": "modular", "weights": [...]}
    {"kind": "concave_of_modular", "shape": "sqrt"|"log1p"|"power"|"cap",
     "weights": [...], "exponent": p, "cap": c}
    {"kind": "graph_cut", "n": n, "edges": [[u, v, w], ...]}
    {"kind": "facility_location", "benefits": [[...], ...]}
    {"kind": "explicit_table", "n": n, "values": [...2^n floats...]}
    {"kind": "scaled_sum", "terms": [{"coeff": c, "spec": {...}}, ...]}

A problem instance document is ``{"n": n, "f": spec, "g": spec}``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (TABLE_MAX_N, GroundSet, SetFunctionOracle, mask_of, nonnegative, real_array,
                   element_indexed, set_sum, whole)

CONCAVE_SHAPES = ("sqrt", "log1p", "power", "cap")


# -- spec constructors --------------------------------------------------------

def modular_spec(weights) -> dict:
    return {"kind": "modular", "weights": list(map(float, weights))}


def sqrt_cardinality_spec(n: int, coeff: float = 1.0) -> dict:
    base = {"kind": "concave_of_modular", "shape": "sqrt", "weights": [1.0] * n}
    return base if coeff == 1.0 else scaled_sum_spec([(coeff, base)])


def scaled_sum_spec(terms) -> dict:
    return {"kind": "scaled_sum", "terms": [{"coeff": float(c), "spec": s} for c, s in terms]}


def decomposition_spec_pair(v_spec: dict, n: int, scale: float) -> tuple[dict, dict]:
    """The (f, g) specs of v = f - g: f = v + scale * sqrt|X| and g = scale * sqrt|X|,
    with the scale ``bounds.ds_decompose`` computes.  This is the one place the
    pair is built; a zero scale pairs v with the zero modular function."""
    if scale == 0.0:
        return v_spec, modular_spec([0.0] * n)
    sqrt_spec = sqrt_cardinality_spec(n)
    return (scaled_sum_spec([(1.0, v_spec), (scale, sqrt_spec)]),
            scaled_sum_spec([(scale, sqrt_spec)]))


# -- builders: (**spec keys) -> (n, fn, name); build_function makes the oracle --

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _weights_array(weights) -> np.ndarray:
    w = real_array(weights, "weights")
    _require(w.ndim == 1 and len(w) >= 1, "'weights' must be a non-empty vector")
    return w


def _build_modular(*, weights):
    w = _weights_array(weights)
    return len(w), lambda S, w=element_indexed(w.tolist()): set_sum(w, S), "modular"


def _concave_fn(shape: str, exponent: float, cap: float):
    if shape == "sqrt":
        return math.sqrt
    if shape == "log1p":
        return math.log1p
    if shape == "power":
        p = nonnegative(exponent, "power exponent")
        _require(0.0 < p <= 1.0, "power shape needs exponent in (0, 1]")
        return lambda t: t ** p
    c = math.inf if cap == math.inf else nonnegative(cap, "cap")  # +inf caps nothing
    return lambda t: min(t, c)


def _build_concave_of_modular(*, weights, shape="sqrt", exponent=0.5, cap=1.0):
    _require(shape in CONCAVE_SHAPES, f"unknown concave shape {shape!r}")
    w = _weights_array(weights)
    _require(np.all(w >= 0.0), "concave-of-modular weights must be non-negative")
    phi = _concave_fn(shape, exponent, cap)  # maps a float to a float, so no float()
    return len(w), lambda S, w=element_indexed(w.tolist()): phi(set_sum(w, S)), f"{shape}_of_modular"


def _build_graph_cut(*, n, edges=()):
    n = whole(n, "graph_cut 'n'")
    cut_edges = []
    for e in edges:
        _require(len(e) in (2, 3), "edge must be [u, v] or [u, v, weight]")
        u, v = whole(e[0], "graph edge endpoint"), whole(e[1], "graph edge endpoint")
        w = nonnegative(e[2], "cut edge weight") if len(e) == 3 else 1.0
        _require(1 <= u <= n and 1 <= v <= n and u != v, f"bad edge endpoints ({u}, {v})")
        cut_edges.append((u, v, w))

    def cut(S):
        total = 0.0
        for u, v, w in cut_edges:
            if (u in S) != (v in S):
                total += w
        return total

    return n, cut, "graph_cut"


def _build_facility_location(*, benefits):
    B = real_array(benefits, "benefits")
    _require(B.ndim == 2 and B.shape[1] >= 1, "'benefits' must be a 2-D matrix")
    _require(np.all(B >= 0.0), "facility benefits must be non-negative")

    def fl(S):
        if not S:
            return 0.0
        cols = [j - 1 for j in S]
        return float(B[:, cols].max(axis=1).sum())

    return B.shape[1], fl, "facility_location"


def _build_explicit_table(*, n, values):
    n = whole(n, "explicit_table 'n'")
    _require(1 <= n <= TABLE_MAX_N, f"explicit_table limited to 1 <= n <= {TABLE_MAX_N}")
    vals = real_array(values, "values", (1 << n,))
    vals = vals - vals[0]  # normalize at construction
    return n, lambda S: float(vals[mask_of(S)]), "table"


def _scaled_term(*, coeff, spec):
    return nonnegative(coeff, "scaled_sum coefficient"), build_function(spec)


def _build_scaled_sum(*, terms):
    _require(isinstance(terms, list) and terms, "scaled_sum needs a non-empty 'terms' list")
    oracles = [_scaled_term(**t) for t in terms]
    n = oracles[0][1].ground.n
    _require(all(o.ground.n == n for _, o in oracles),
             "scaled_sum children must share one ground set size")

    terms = [(c, o._fn) for c, o in oracles]

    def total(S):
        t = 0.0
        for c, fn in terms:
            t += c * fn(S)
        return t

    return n, total, "scaled_sum"


_BUILDERS = {
    "modular": _build_modular,
    "concave_of_modular": _build_concave_of_modular,
    "graph_cut": _build_graph_cut,
    "facility_location": _build_facility_location,
    "explicit_table": _build_explicit_table,
    "scaled_sum": _build_scaled_sum,
}


def build_function(spec: dict, ground: GroundSet | None = None) -> SetFunctionOracle:
    """Construct the oracle a spec describes, normalized to 0 at the empty set,
    on a ground set sized from the spec or on ``ground``, which must fit it."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("function spec must be an object with a 'kind' field")
    kind, params = spec["kind"], {k: v for k, v in spec.items() if k != "kind"}
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ValueError(f"unknown function kind {kind!r}")
    try:
        n, fn, name = _BUILDERS[kind](**params)
    except TypeError as exc:
        raise ValueError(f"malformed {kind} spec: {exc}") from exc
    ground = ground or GroundSet(n)
    _require(ground.n == n, f"{kind} spec has size {n}, the ground set {ground.n}")
    return SetFunctionOracle(ground, fn, name=name)


def instance_from_dict(doc: dict) -> tuple[GroundSet, SetFunctionOracle, SetFunctionOracle]:
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    for key in ("n", "f", "g"):
        if key not in doc:
            raise ValueError(f"instance document missing '{key}'")
    ground = GroundSet(whole(doc["n"], "instance 'n'"))
    return ground, build_function(doc["f"], ground), build_function(doc["g"], ground)
