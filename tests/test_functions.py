import json
import math

import numpy as np
import pytest

from dsmin import build_function, check_submodular
from dsmin.functions import (graph_cut_spec, instance_from_dict, modular_spec,
                             sqrt_cardinality_spec, table_spec)

import helpers


def test_modular_spec():
    f = build_function(modular_spec([1.0, 2.0, 3.0]))
    assert f({2, 3}) == pytest.approx(5.0)
    assert f(frozenset()) == 0.0


def test_graph_cut_triangle():
    f = build_function(graph_cut_spec(3, [[1, 2], [1, 3], [2, 3]]))
    assert f({1}) == pytest.approx(2.0)
    assert f({1, 2, 3}) == pytest.approx(0.0)


def test_scaled_sum_of_sqrt():
    f = build_function(sqrt_cardinality_spec(3, coeff=2.0))
    assert f({1, 2}) == pytest.approx(2.0 * math.sqrt(2))


def test_explicit_table_normalizes_offset():
    f = build_function(table_spec(2, [5.0, 6.0, 7.0, 8.0]))
    assert f(frozenset()) == 0.0
    assert f({1}) == pytest.approx(1.0)
    assert f({1, 2}) == pytest.approx(3.0)


def test_facility_location():
    spec = {"kind": "facility_location", "benefits": [[1.0, 3.0], [2.0, 0.5]]}
    f = build_function(spec)
    assert f(frozenset()) == 0.0
    assert f({2}) == pytest.approx(3.5)
    assert f({1, 2}) == pytest.approx(5.0)


def test_concave_shapes():
    for shape, expect in [("sqrt", math.sqrt(2.0)), ("log1p", math.log(3.0)),
                          ("power", 2.0 ** 0.7), ("cap", 1.5)]:
        spec = {"kind": "concave_of_modular", "shape": shape, "weights": [1.0, 1.0]}
        if shape == "power":
            spec["exponent"] = 0.7
        if shape == "cap":
            spec["cap"] = 1.5
        f = build_function(spec)
        assert f({1, 2}) == pytest.approx(expect)


@pytest.mark.parametrize("bad", [
    {"kind": "modular"},
    {"kind": "concave_of_modular", "shape": "sqrt", "weights": [-1.0, 1.0]},
    {"kind": "graph_cut", "n": 3, "edges": [[1, 4]]},
    {"kind": "graph_cut", "n": 3, "edges": [[1, 2, -1.0]]},
    {"kind": "explicit_table", "n": 2, "values": [0.0, 1.0]},
    {"kind": "scaled_sum", "terms": [{"coeff": -1.0, "spec": {"kind": "modular", "weights": [1.0]}}]},
    {"kind": "facility_location", "benefits": [[-1.0]]},
    {"kind": "nope"},
    {"weights": [1.0]},
    [{"kind": "modular", "weights": [1.0]}],
    {"kind": ["modular"]},
    {"kind": "scaled_sum", "terms": [1]},
    {"kind": "scaled_sum", "terms": [{"coeff": 1.0, "spec": {"kind": "nope"}}]},
])
def test_malformed_specs_rejected(bad):
    with pytest.raises(ValueError):
        build_function(bad)


@pytest.mark.parametrize("bad", [
    {"kind": "modular", "weights": [1.0, math.nan]},
    {"kind": "concave_of_modular", "shape": "sqrt", "weights": [math.inf, 1.0]},
    {"kind": "graph_cut", "n": 3, "edges": [[1, 2, math.inf]]},
    {"kind": "facility_location", "benefits": [[1.0, math.inf]]},
    {"kind": "explicit_table", "n": 1, "values": [0.0, math.nan]},
    {"kind": "scaled_sum", "terms": [{"coeff": math.inf, "spec": {"kind": "modular", "weights": [1.0]}}]},
])
def test_non_finite_specs_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        build_function(bad)


def test_every_builtin_family_is_submodular():
    rng = np.random.default_rng(42)
    for n in (2, 4, 6):
        for fam in helpers.FAMILY_BUILDERS:
            for _ in range(3):
                f = helpers.FAMILY_BUILDERS[fam](rng, n)
                assert check_submodular(f), f"{fam} instance on n={n} failed"
                assert f(frozenset()) == pytest.approx(0.0)


def test_spec_json_roundtrip():
    spec = sqrt_cardinality_spec(3, coeff=2.0)
    rebuilt = build_function(json.loads(json.dumps(spec)))
    direct = build_function(spec)
    for S in helpers.all_subsets(3):
        assert rebuilt(S) == pytest.approx(direct(S))


def test_instance_from_dict():
    doc = {"n": 3,
           "f": graph_cut_spec(3, [[1, 2], [1, 3], [2, 3]]),
           "g": sqrt_cardinality_spec(3, coeff=2.0)}
    ground, f, g = instance_from_dict(doc)
    assert ground.n == 3
    assert f({1}) == pytest.approx(2.0)
    assert g({1}) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        instance_from_dict({"n": 3, "f": doc["f"]})
