"""dsmin: minimize differences of submodular set functions.

Library layout:

* :mod:`dsmin.core`        ground sets, oracles, exhaustive reference tools
* :mod:`dsmin.functions`   built-in function families and the JSON format
* :mod:`dsmin.bounds`      tight modular bounds, decomposition constants, certificates
* :mod:`dsmin.sfm`         exact minimization (minimum-norm point)
* :mod:`dsmin.sfmax`       approximate maximization (double greedy et al.)
* :mod:`dsmin.constraints` combinatorial constraints, constrained modular opt
* :mod:`dsmin.solvers`     the three descent procedures and traces
* :mod:`dsmin.featsel`     mutual-information feature selection
* :mod:`dsmin.cli`         the ``dsmin`` command-line driver

The package exports the entry points: ``build_function`` and
``instance_from_dict`` read specs into oracles; ``sub_sup``, ``sup_sub``
and ``mod_mod`` take a ``DSInstance`` with ``SolverOptions`` and return an
``OptimizationTrace`` (or raise ``SolverError``); ``modular_lower_bound``,
``modular_upper_bound``, ``minima_lower_bounds``, ``ds_decompose`` and
``min_norm_point`` are the paper's bounds, certificates, decomposition and
exact minimizer; ``Dataset``, ``CostModel``, ``build_objective`` and
``greedy_select`` set up feature selection.  Everything else is imported
from its module.

Every inner step reads its ground set from the oracle it is given.  A
permutation chain is a plain tuple of 1..n (``Permutation`` is the alias
``tuple[int, ...]``); ``modular_lower_bound`` checks it against g's ground
set.
"""

from .bounds import (Permutation, ds_decompose, minima_lower_bounds,
                     modular_lower_bound, modular_upper_bound)
from .constraints import Constraint
from .core import GroundSet, SetFunctionOracle, memoized
from .featsel import CostModel, Dataset, build_objective, greedy_select
from .functions import build_function, instance_from_dict
from .sfm import min_norm_point
from .solvers import (DSInstance, OptimizationTrace, SolverError, SolverOptions,
                      mod_mod, sub_sup, sup_sub)

__version__ = "0.1.0"

__all__ = [
    "Constraint", "CostModel", "DSInstance", "Dataset", "GroundSet",
    "OptimizationTrace", "Permutation", "SetFunctionOracle", "SolverError",
    "SolverOptions", "build_function", "build_objective", "ds_decompose",
    "greedy_select", "instance_from_dict", "memoized", "min_norm_point",
    "minima_lower_bounds", "mod_mod", "modular_lower_bound",
    "modular_upper_bound", "sub_sup", "sup_sub",
]
