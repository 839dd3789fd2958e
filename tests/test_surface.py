"""The package's public surface and the attributes the benchmark tracer patches."""

import inspect
from pathlib import Path

import dsmin

BENCH = Path(__file__).resolve().parent.parent / "bench"

# what bench/ reads from the top-level package, plus the entry points the
# package docstring names
PUBLIC = sorted([
    "GroundSet", "SetFunctionOracle", "memoized", "Permutation", "Constraint",
    "CostModel", "Dataset", "DSInstance", "build_objective", "greedy_select",
    "instance_from_dict", "sub_sup", "sup_sub", "mod_mod", "OptimizationTrace",
    "SolverOptions", "SolverError", "modular_lower_bound", "modular_upper_bound",
    "minima_lower_bounds", "ds_decompose", "min_norm_point", "build_function",
])


def test_public_surface_is_pinned():
    assert sorted(dsmin.__all__) == PUBLIC
    assert all(hasattr(dsmin, name) for name in dsmin.__all__)


def test_traced_attributes_exist(monkeypatch):
    # bench/spans.py wraps these by name; a moved or renamed one raises KeyError
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    attrs = spans.current_attributes()
    assert len(attrs) == len(spans.SPANNED) + 1
    assert all(map(callable, attrs.values()))
    # the tracer's memo wrapper calls the memo as fn(oracle, X)
    memo_call = attrs[(dsmin.core.MemoizedOracle, "__call__")]
    assert list(inspect.signature(memo_call).parameters) == ["self", "X"]
