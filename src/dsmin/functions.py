"""Built-in set-function families and their JSON format.

Every family except ``explicit_table`` constructs a submodular oracle by
construction (validated parameter ranges); explicit tables can encode any
set function and are only checkable exhaustively.  All built oracles are
normalized so the empty set evaluates to 0.

A function spec is a plain dict, read from and written to JSON as it is;
:func:`build_function` checks it and builds the oracle it describes::

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

from .core import GroundSet, SetFunctionOracle, mask_of

CONCAVE_SHAPES = ("sqrt", "log1p", "power", "cap")


# -- spec constructors --------------------------------------------------------

def modular_spec(weights) -> dict:
    return {"kind": "modular", "weights": list(map(float, weights))}


def sqrt_cardinality_spec(n: int, coeff: float = 1.0) -> dict:
    base = {"kind": "concave_of_modular", "shape": "sqrt", "weights": [1.0] * n}
    return base if coeff == 1.0 else scaled_sum_spec([(coeff, base)])


def graph_cut_spec(n: int, edges) -> dict:
    return {"kind": "graph_cut", "n": int(n), "edges": [list(e) for e in edges]}


def table_spec(n: int, values) -> dict:
    return {"kind": "explicit_table", "n": int(n), "values": list(map(float, values))}


def scaled_sum_spec(terms) -> dict:
    return {"kind": "scaled_sum", "terms": [{"coeff": float(c), "spec": s} for c, s in terms]}


def decomposition_spec_pair(v_spec: dict, n: int, scale: float) -> tuple[dict, dict]:
    """The (f, g) specs of v = f - g with g = scale * sqrt|X|, as ``ds_decompose``
    builds them; a zero scale pairs v with the zero modular function."""
    if scale == 0.0:
        return v_spec, modular_spec([0.0] * n)
    sqrt_spec = sqrt_cardinality_spec(n)
    return (scaled_sum_spec([(1.0, v_spec), (scale, sqrt_spec)]),
            scaled_sum_spec([(scale, sqrt_spec)]))


# -- builders ------------------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _weights_array(params: dict, key: str = "weights") -> np.ndarray:
    _require(key in params, f"missing '{key}'")
    w = np.asarray(params[key], dtype=float)
    _require(w.ndim == 1 and len(w) >= 1, f"'{key}' must be a non-empty vector")
    _require(np.all(np.isfinite(w)), f"'{key}' must be finite")
    return w


def _build_modular(params, ground):
    w = _weights_array(params)
    ground = ground or GroundSet(len(w))
    _require(ground.n == len(w), "weight vector length must equal ground set size")
    return SetFunctionOracle(ground, lambda S: float(sum(w[j - 1] for j in S)), name="modular")


def _concave_fn(shape: str, params: dict):
    if shape == "sqrt":
        return math.sqrt
    if shape == "log1p":
        return math.log1p
    if shape == "power":
        p = float(params.get("exponent", 0.5))
        _require(0.0 < p <= 1.0, "power shape needs exponent in (0, 1]")
        return lambda t: t ** p
    if shape == "cap":
        c = float(params.get("cap", 1.0))
        _require(c >= 0.0, "cap must be non-negative")
        return lambda t: min(t, c)
    raise ValueError(f"unknown concave shape {shape!r}")


def _build_concave_of_modular(params, ground):
    shape = params.get("shape", "sqrt")
    _require(shape in CONCAVE_SHAPES, f"unknown concave shape {shape!r}")
    w = _weights_array(params)
    _require(np.all(w >= 0.0), "concave-of-modular weights must be non-negative")
    phi = _concave_fn(shape, params)
    ground = ground or GroundSet(len(w))
    _require(ground.n == len(w), "weight vector length must equal ground set size")
    return SetFunctionOracle(ground, lambda S: float(phi(sum(w[j - 1] for j in S))),
                             name=f"{shape}_of_modular")


def _build_graph_cut(params, ground):
    _require("n" in params, "graph_cut needs 'n'")
    n = int(params["n"])
    ground = ground or GroundSet(n)
    _require(ground.n == n, "graph_cut 'n' must equal ground set size")
    edges = []
    for e in params.get("edges", []):
        _require(len(e) in (2, 3), "edge must be [u, v] or [u, v, weight]")
        u, v = int(e[0]), int(e[1])
        w = float(e[2]) if len(e) == 3 else 1.0
        _require(1 <= u <= n and 1 <= v <= n and u != v, f"bad edge endpoints ({u}, {v})")
        _require(math.isfinite(w) and w >= 0.0,
                 "cut edge weights must be finite and non-negative")
        edges.append((u, v, w))

    def cut(S):
        total = 0.0
        for u, v, w in edges:
            if (u in S) != (v in S):
                total += w
        return total

    return SetFunctionOracle(ground, cut, name="graph_cut")


def _build_facility_location(params, ground):
    _require("benefits" in params, "facility_location needs 'benefits'")
    B = np.asarray(params["benefits"], dtype=float)
    _require(B.ndim == 2 and B.shape[1] >= 1, "'benefits' must be a 2-D matrix")
    _require(np.all(np.isfinite(B) & (B >= 0.0)),
             "facility benefits must be finite and non-negative")
    n = B.shape[1]
    ground = ground or GroundSet(n)
    _require(ground.n == n, "benefit matrix width must equal ground set size")

    def fl(S):
        if not S:
            return 0.0
        cols = [j - 1 for j in S]
        return float(B[:, cols].max(axis=1).sum())

    return SetFunctionOracle(ground, fl, name="facility_location")


def _build_explicit_table(params, ground):
    _require("n" in params and "values" in params, "explicit_table needs 'n' and 'values'")
    n = int(params["n"])
    _require(1 <= n <= 20, "explicit_table limited to 1 <= n <= 20")
    vals = np.asarray(params["values"], dtype=float)
    _require(vals.shape == (1 << n,), f"table needs exactly 2^{n} values")
    _require(np.all(np.isfinite(vals)), "table values must be finite")
    ground = ground or GroundSet(n)
    _require(ground.n == n, "table 'n' must equal ground set size")
    vals = vals - vals[0]  # normalize at construction
    return SetFunctionOracle(ground, lambda S: float(vals[mask_of(S)]), name="table")


def _build_scaled_sum(params, ground):
    terms = params.get("terms")
    _require(isinstance(terms, list) and terms, "scaled_sum needs a non-empty 'terms' list")
    oracles = []
    for t in terms:
        _require(isinstance(t, dict) and "coeff" in t and "spec" in t,
                 "each term needs 'coeff' and 'spec'")
        c = float(t["coeff"])
        _require(math.isfinite(c) and c >= 0.0,
                 "scaled_sum coefficients must be finite and non-negative")
        oracles.append((c, build_function(t["spec"], ground)))
    ground = ground or oracles[0][1].ground
    for _, o in oracles:
        _require(o.ground.n == ground.n, "scaled_sum children must share one ground set")

    def total(S):
        return float(sum(c * o._fn(S) for c, o in oracles))

    return SetFunctionOracle(ground, total, name="scaled_sum")


_BUILDERS = {
    "modular": _build_modular,
    "concave_of_modular": _build_concave_of_modular,
    "graph_cut": _build_graph_cut,
    "facility_location": _build_facility_location,
    "explicit_table": _build_explicit_table,
    "scaled_sum": _build_scaled_sum,
}


def build_function(spec: dict, ground: GroundSet | None = None) -> SetFunctionOracle:
    """Construct the oracle a spec describes, normalized to 0 at the empty set."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("function spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ValueError(f"unknown function kind {kind!r}")
    return _BUILDERS[kind](spec, ground)


def instance_from_dict(doc: dict) -> tuple[GroundSet, SetFunctionOracle, SetFunctionOracle]:
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    for key in ("n", "f", "g"):
        if key not in doc:
            raise ValueError(f"instance document missing '{key}'")
    ground = GroundSet(int(doc["n"]))
    return ground, build_function(doc["f"], ground), build_function(doc["g"], ground)
