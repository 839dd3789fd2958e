"""dsmin: minimize differences of submodular set functions.

Library layout:

* :mod:`dsmin.core`        ground sets, oracles, exhaustive reference tools
* :mod:`dsmin.functions`   built-in function families and the JSON format
* :mod:`dsmin.bounds`      tight modular bounds, decomposition, certificates
* :mod:`dsmin.sfm`         exact minimization (minimum-norm point)
* :mod:`dsmin.sfmax`       approximate maximization (double greedy et al.)
* :mod:`dsmin.constraints` combinatorial constraints, constrained modular opt
* :mod:`dsmin.solvers`     the three descent procedures and traces
* :mod:`dsmin.featsel`     mutual-information feature selection
* :mod:`dsmin.cli`         the ``dsmin`` command-line driver
"""

from .bounds import (DSDecomposition, Permutation, ds_decompose,
                     minima_lower_bounds, modular_lower_bound,
                     modular_upper_bound, sqrt_curvature, totally_normalize)
from .constraints import Constraint, modular_minimize_constrained
from .core import (AffineModular, GroundSet, MemoizedOracle, SetFunctionOracle,
                   brute_force_minimize, check_submodular, gain, memoized)
from .featsel import (CostModel, Dataset, build_objective, empirical_entropy,
                      evaluate_cost, greedy_select, mutual_information,
                      naive_bayes_cv, parse_sparse_dataset)
from .functions import build_function, instance_from_dict
from .sfm import NonConvergenceError, greedy_base_vertex, min_norm_point
from .sfmax import MaximizerResult, double_greedy, greedy_cardinality_max, local_search_max
from .solvers import (DSInstance, OptimizationTrace, SolverError, SolverOptions,
                      accept_step, choose_permutation, epsilon_iteration_cap,
                      local_optimality_check, mod_mod, sub_sup, sup_sub)

__version__ = "0.1.0"

__all__ = [
    "AffineModular", "Constraint", "CostModel", "DSDecomposition",
    "DSInstance", "Dataset", "GroundSet", "MaximizerResult",
    "MemoizedOracle", "NonConvergenceError", "OptimizationTrace", "Permutation",
    "SetFunctionOracle", "SolverError", "SolverOptions", "accept_step",
    "brute_force_minimize", "build_function", "build_objective",
    "check_submodular", "choose_permutation", "double_greedy", "ds_decompose",
    "empirical_entropy", "epsilon_iteration_cap", "evaluate_cost", "gain",
    "greedy_base_vertex", "greedy_cardinality_max", "greedy_select",
    "instance_from_dict", "local_optimality_check",
    "local_search_max", "memoized", "min_norm_point", "minima_lower_bounds",
    "mod_mod", "modular_lower_bound", "modular_minimize_constrained",
    "modular_upper_bound", "mutual_information", "naive_bayes_cv",
    "parse_sparse_dataset", "sqrt_curvature", "sub_sup",
    "sup_sub", "totally_normalize",
]
