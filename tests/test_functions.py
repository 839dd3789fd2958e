import json
import math

import numpy as np
import pytest

from dsmin import GroundSet, build_function, instance_from_dict
from dsmin.core import AffineModular, check_submodular
from dsmin.functions import modular_spec, scaled_sum_spec, sqrt_cardinality_spec

import helpers
from helpers import float64_generator_sum, graph_cut_spec, table_spec


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
    # a missing or unknown key
    {"kind": "concave_of_modular", "shape": "power", "weights": [1.0], "exponant": 0.3},
    {"kind": "modular", "weights": [1.0], "shape": "sqrt"},
    {"kind": "graph_cut", "n": 2, "edges": [], "weights": [1.0, 1.0]},
    {"kind": "facility_location", "benefits": [[1.0]], "n": 1},
    {"kind": "explicit_table", "n": 1, "values": [0.0, 1.0], "normalize": True},
    {"kind": "scaled_sum", "terms": [], "n": 1},
    {"kind": "scaled_sum", "terms": [{"coeff": 1.0, "spec": modular_spec([1.0]), "x": 0}]},
    {"kind": "scaled_sum", "terms": [{"spec": modular_spec([1.0])}]},
    {"kind": "graph_cut", "edges": []},
    {"kind": "explicit_table", "n": 1},
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
    {"kind": "graph_cut", "n": 3, "edges": [[1, 2, True]]},
    {"kind": "graph_cut", "n": 3, "edges": [[1, 2, "0.5"]]},
    {"kind": "scaled_sum", "terms": [{"coeff": "2", "spec": {"kind": "modular", "weights": [1.0]}}]},
    {"kind": "concave_of_modular", "shape": "power", "weights": [1.0], "exponent": "0.5"},
    {"kind": "concave_of_modular", "shape": "power", "weights": [1.0], "exponent": math.nan},
])
def test_non_finite_specs_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        build_function(bad)


@pytest.mark.parametrize("bad, array", [
    ({"kind": "modular", "weights": ["1.5", True]}, "'weights'"),
    ({"kind": "modular", "weights": [1.5, True]}, "'weights'"),
    ({"kind": "modular", "weights": np.array([True, False])}, "'weights'"),
    ({"kind": "concave_of_modular", "shape": "sqrt", "weights": [1.0, "2"]}, "'weights'"),
    ({"kind": "facility_location", "benefits": [["2", True]]}, "'benefits'"),
    ({"kind": "facility_location", "benefits": [[2.0, 1.0], [1.0, False]]}, "'benefits'"),
    ({"kind": "facility_location", "benefits": [[2.0, 1.0], [1.0]]}, "'benefits'"),
    ({"kind": "explicit_table", "n": 1, "values": [0.0, "1"]}, "'values'"),
    ({"kind": "explicit_table", "n": 1, "values": [0.0, True]}, "'values'"),
    ({"kind": "explicit_table", "n": 1, "values": [0.0, None]}, "'values'"),
])
def test_spec_arrays_hold_real_numbers_only(bad, array):
    # float() would read "1.5" as 1.5 and True as 1.0
    with pytest.raises(ValueError, match=f"{array} must hold real numbers"):
        build_function(bad)


def test_spec_arrays_read_ints_and_numpy_numbers_as_floats():
    f = build_function({"kind": "modular", "weights": [1, np.float64(0.5), np.int64(2)]})
    assert f({1, 2, 3}) == 3.5
    f = build_function({"kind": "facility_location", "benefits": np.array([[2, 1], [0, 3]])})
    assert f({1}) == 2.0 and f({1, 2}) == 5.0


@pytest.mark.parametrize("bad", [
    {"kind": "graph_cut", "n": 3.2, "edges": [[1, 2, 1.0]]},
    {"kind": "graph_cut", "n": "3"},
    {"kind": "graph_cut", "n": 3, "edges": [[1.9, 2, 1.0]]},
    {"kind": "graph_cut", "n": 3, "edges": [[1, "2"]]},
    {"kind": "explicit_table", "n": 1.5, "values": [0.0, 1.0]},
])
def test_sizes_and_endpoints_must_be_whole(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        build_function(bad)


def test_whole_float_sizes_and_endpoints_are_read_as_ints():
    f = build_function({"kind": "graph_cut", "n": 3.0, "edges": [[1.0, 2, 1.0]]})
    assert f.ground.n == 3 and f({1}) == 1.0


@pytest.mark.parametrize("cap", ["1.5", True, math.nan, -1.0])
def test_concave_cap_must_be_a_number_at_least_zero(cap):
    with pytest.raises(ValueError, match="cap must be finite and >= 0"):
        build_function({"kind": "concave_of_modular", "shape": "cap", "weights": [1.0],
                        "cap": cap})


def test_infinite_concave_cap_caps_nothing():
    spec = {"kind": "concave_of_modular", "shape": "cap", "weights": [1.5, 2.0], "cap": math.inf}
    f = build_function(json.loads(json.dumps(spec)))
    assert [f(S) for S in ({1}, {1, 2})] == [1.5, 3.5]


def test_spec_size_must_fit_the_ground_set():
    for spec in (modular_spec([1.0, 2.0]), graph_cut_spec(2, [[1, 2]]),
                 sqrt_cardinality_spec(2, coeff=2.0)):
        assert build_function(spec, GroundSet(2)).ground == GroundSet(2)
        with pytest.raises(ValueError, match="spec has size 2, the ground set 3"):
            build_function(spec, GroundSet(3))
    mixed = {"kind": "scaled_sum", "terms": [{"coeff": 1.0, "spec": modular_spec([1.0])},
                                             {"coeff": 1.0, "spec": modular_spec([1.0, 2.0])}]}
    with pytest.raises(ValueError, match="children must share one ground set size"):
        build_function(mixed)


def test_optional_keys_take_their_defaults():
    w = [1.0, 4.0]
    plain = {"kind": "concave_of_modular", "weights": w}
    for spec, phi in [(plain, math.sqrt),
                      ({**plain, "shape": "power"}, lambda t: t ** 0.5),
                      ({**plain, "shape": "cap"}, lambda t: min(t, 1.0))]:
        f = build_function(spec)
        assert [f(S) for S in ({1}, {2}, {1, 2})] == [phi(1.0), phi(4.0), phi(5.0)]
    cut = build_function({"kind": "graph_cut", "n": 2})
    assert cut({1}) == 0.0


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
    with pytest.raises(ValueError, match="instance document must be a JSON object"):
        instance_from_dict([])


@pytest.mark.parametrize("n", [3.7, "3", True])
def test_instance_size_must_be_whole(n):
    doc = {"n": n, "f": graph_cut_spec(3, [[1, 2]]), "g": sqrt_cardinality_spec(3)}
    with pytest.raises(ValueError, match="must be an integer"):
        instance_from_dict(doc)


def _orders_of_equal_sets(rng, n):
    """Random subsets of 1..n plus the empty set and V, each built in three insertion orders."""
    picks = [[], list(range(1, n + 1))]
    picks += [list(rng.permutation(n)[:rng.integers(1, n + 1)] + 1) for _ in range(6)]
    for order in picks:
        order = [int(j) for j in order]
        grown = set(range(1, 2 * n + 1))
        grown.difference_update(set(range(1, 2 * n + 1)) - set(order))
        yield [frozenset(order), frozenset(reversed(order)), frozenset(grown)]


def _bits(x):
    return float(x).hex()  # tells -0.0 from 0.0, unlike ==


# phi as the concave oracle applied it to the generator sum (a float64, or int 0 at the empty set)
CONCAVE_REFERENCE = [
    ({"shape": "sqrt"}, math.sqrt),
    ({"shape": "log1p"}, math.log1p),
    *[({"shape": "power", "exponent": p}, lambda t, p=p: t ** p) for p in (0.13, 0.5, 0.77, 1.0)],
    *[({"shape": "cap", "cap": c}, lambda t, c=c: min(t, c)) for c in (0.0, 0.4, 3.0)],
]


@pytest.mark.parametrize("n", [1, 2, 7, 33, 128])
def test_set_sums_match_the_float64_generator_sum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    # magnitudes over 16 decades, so that the order of the additions shows in the bits
    w = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    w_pos = np.abs(w)
    modular = build_function(modular_spec(w))
    concave = [(build_function({"kind": "concave_of_modular", "weights": w_pos.tolist(),
                                **params}), phi) for params, phi in CONCAVE_REFERENCE]
    offsets = [0.0, -0.0, float(rng.standard_normal() * 1e3), np.float64(rng.standard_normal())]
    # scaled sums of a modular and a sqrt child, one, two and three terms; a zero coefficient
    # on a negative modular value makes -0.0, which the leading 0.0 turns into 0.0
    children = [(modular_spec(w), lambda S: float64_generator_sum(w, S)),
                ({"kind": "concave_of_modular", "shape": "sqrt", "weights": w_pos.tolist()},
                 lambda S: math.sqrt(float64_generator_sum(w_pos, S)))]
    coeffs = [0.0, 1.0, float(rng.uniform(0.1, 10.0))]
    term_lists = [[(c, child)] for c in coeffs for child in children]
    term_lists += [[(c0, children[0]), (c1, children[1])] for c0 in coeffs for c1 in coeffs]
    term_lists.append([(coeffs[2], children[0]), (1.0, children[1]), (1.0, children[0])])
    scaled = [(build_function(scaled_sum_spec([(c, spec) for c, (spec, _) in terms])), terms)
              for terms in term_lists]
    orders_differ = False
    for same in _orders_of_equal_sets(rng, n):
        orders_differ |= len({tuple(S) for S in same}) > 1
        for S in same:
            ref = float64_generator_sum(w, S)
            assert modular(S) == float(ref) and _bits(modular(S)) == _bits(ref)
            for f, phi in concave:
                assert _bits(f(S)) == _bits(phi(float64_generator_sum(w_pos, S)))
            for offset in offsets:
                got = AffineModular(offset, w).value(S)
                assert _bits(got) == _bits(offset + ref)
            for f, terms in scaled:
                expected = 0.0
                for c, (_, child_ref) in terms:
                    expected += c * child_ref(S)
                assert _bits(f(S)) == _bits(expected)
    assert orders_differ or n < 9  # below 9, every small-int set iterates in sorted order
