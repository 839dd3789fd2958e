"""Command-line driver: optimize instances, certify bounds, decompose, select features.

Exit codes: 0 success, 1 usage/parse/validation problem, 2 runtime failure.
Options may also come from a JSON config file (``--config``).  Its keys are
flag names, with ``-`` or ``_``, and each entry is read as that flag placed
before the command-line flags: it is checked like a flag, an explicit flag
wins, and a JSON null leaves the flag unset.  Every report prints the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bounds import ds_decompose, minima_lower_bounds
from .constraints import Constraint
from .core import GroundSet, SetFunctionOracle, brute_force_minimize, check_submodular
from .featsel import (CostModel, build_objective, evaluate_cost, greedy_select,
                      naive_bayes_cv, parse_sparse_dataset)
from .functions import build_function, decomposition_spec_pair, instance_from_dict
from .sfm import min_norm_point
from .sfmax import DG_MODES
from .solvers import (HEURISTICS, SOLVERS, UB_STRATEGIES, DSInstance, SolverError,
                      SolverOptions)

FEATSEL_METHODS = ("grf", "grnf", *SOLVERS)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="dsmin", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="run one solver on an instance file")
    opt.add_argument("--instance", required=True)
    opt.add_argument("--algo", choices=SOLVERS, default="modmod")
    opt.add_argument("--epsilon", type=float)
    opt.add_argument("--seed", type=int)
    opt.add_argument("--heuristic", choices=HEURISTICS)
    opt.add_argument("--ub-strategy", choices=UB_STRATEGIES)
    opt.add_argument("--constraint", help="card_le=K, card_eq=K, or @file.json")
    opt.add_argument("--max-iters", type=int)
    opt.add_argument("--dg-mode", choices=DG_MODES)
    opt.add_argument("--out", help="prefix for trace .json and .csv files")
    opt.add_argument("--config")
    opt.set_defaults(func=cmd_optimize)

    cert = sub.add_parser("certify", help="print lower-bound certificates")
    cert.add_argument("--instance", required=True)
    cert.add_argument("--seed", type=int, default=0)
    cert.add_argument("--out")
    cert.add_argument("--config")
    cert.set_defaults(func=cmd_certify)

    dec = sub.add_parser("decompose",
                         help="write a difference-of-submodular decomposition")
    dec.add_argument("--instance", required=True,
                     help="JSON {n, v: spec, alpha_lb?}")
    dec.add_argument("--out")
    dec.add_argument("--config")
    dec.set_defaults(func=cmd_decompose)

    fs = sub.add_parser("featsel", help="feature-selection experiments")
    fs.add_argument("--data", required=True)
    fs.add_argument("--lambdas", default="0.01", help="comma-separated trade-off values")
    fs.add_argument("--methods", default="all",
                    help=f"'all' or comma list of {','.join(FEATSEL_METHODS)}")
    fs.add_argument("--cost", choices=("modular", "partition_sqrt"), default="modular")
    fs.add_argument("--blocks", help="JSON file {blocks: [[...]], weights?: [...]}")
    fs.add_argument("--alpha", type=float, default=1.0)
    fs.add_argument("--folds", type=int, default=10)
    fs.add_argument("--budget", type=int)
    fs.add_argument("--seed", type=int, default=0)
    fs.add_argument("--max-iters", type=int)
    fs.add_argument("--out", help="prefix for results .json and .csv")
    fs.add_argument("--config")
    fs.set_defaults(func=cmd_featsel)
    return p


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}")


def _config_flags(path: str) -> list[str]:
    """The entries of a JSON config file as command-line flags."""
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    return [f"--{key.replace('_', '-')}={value}"
            for key, value in doc.items() if value is not None]


def _solver_options(args: argparse.Namespace) -> SolverOptions:
    """SolverOptions from the flags that are set; the dataclass supplies the rest."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SolverOptions)}
    return SolverOptions(**{k: v for k, v in given.items() if v is not None})


def _parse_constraint(text: str | None) -> Constraint:
    if not text:
        return Constraint.none()
    if text.startswith("@"):
        try:
            return Constraint.from_dict(_read_json(text[1:], "constraint"))
        except (AttributeError, KeyError, TypeError) as exc:
            raise UsageError(f"malformed constraint {text[1:]}: {exc!r}")
    if "=" in text:
        key, _, val = text.partition("=")
        if key == "card_le":
            return Constraint.cardinality_le(int(val))
        if key == "card_eq":
            return Constraint.cardinality_eq(int(val))
    raise UsageError(f"cannot parse constraint {text!r} "
                     "(use card_le=K, card_eq=K, or @file.json)")


def _validate_instance(f: SetFunctionOracle, g: SetFunctionOracle) -> None:
    # desk-scale instances get the full submodularity check up front
    if f.ground.n <= 12:
        for name, o in (("f", f), ("g", g)):
            if not check_submodular(o):
                raise UsageError(f"instance part '{name}' is not submodular")


def cmd_optimize(args: argparse.Namespace) -> int:
    opts = _solver_options(args)
    _, f, g = _load_parts(args.instance)
    constraint = _parse_constraint(args.constraint)
    _validate_instance(f, g)
    trace = SOLVERS[args.algo](DSInstance(f, g), opts, constraint)
    print(f"algorithm: {args.algo}")
    print(f"seed: {opts.seed}")
    print(f"final set: {sorted(trace.final_set)}")
    print(f"final value: {trace.final_value:.6f}")
    print(f"iterations: {trace.n_accepted}")
    print(f"oracle calls: {trace.oracle_calls}")
    print(f"elapsed: {trace.elapsed:.3f} s")
    print(f"termination: {trace.termination}")
    if trace.locally_optimal is not None:
        print(f"locally optimal: {str(trace.locally_optimal).lower()}")
    if args.out:
        trace.write_json(args.out + ".json")
        trace.write_csv(args.out + ".csv")
    return 0


def _load_parts(path: str):
    doc = _read_json(path, "instance")
    try:
        return instance_from_dict(doc)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot load instance {path}: {exc}")


BRUTE_CERTIFY_MAX_N = 20


def cmd_certify(args: argparse.Namespace) -> int:
    ground, f, g = _load_parts(args.instance)
    _validate_instance(f, g)
    bound1, bound2 = minima_lower_bounds(f, g, min_norm_point)
    lines = [f"instance: {args.instance}",
             f"n: {ground.n}",
             f"seed: {args.seed}",
             f"bound1: {bound1:.6f}",
             f"bound2: {bound2:.6f}"]
    if ground.n <= BRUTE_CERTIFY_MAX_N:
        best_set, best_val = brute_force_minimize(DSInstance(f, g).v_oracle())
        lines += [f"brute-force minimum: {best_val:.6f} at {sorted(best_set)}",
                  f"gap1: {best_val - bound1:.6f}",
                  f"gap2: {best_val - bound2:.6f}"]
    else:
        lines.append(f"brute-force minimum: skipped (n > {BRUTE_CERTIFY_MAX_N})")
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    doc = _read_json(args.instance, "function document")
    try:
        ground = GroundSet(int(doc["n"]))
        v = build_function(doc["v"], ground)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot load function document {args.instance}: {exc}")
    dec = ds_decompose(v, doc.get("alpha_lb"))
    f_spec, g_spec = decomposition_spec_pair(doc["v"], ground.n, dec.scale)
    out_doc = {"n": ground.n, "f": f_spec, "g": g_spec,
               "alpha": dec.alpha, "beta": dec.beta, "scale": dec.scale}
    print(f"alpha: {dec.alpha:.6f}")
    print(f"beta: {dec.beta:.6f}")
    print(f"scale: {dec.scale:.6f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out_doc, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(out_doc, sys.stdout, indent=2)
        print()
    return 0


def cmd_featsel(args: argparse.Namespace) -> int:
    try:
        ds = parse_sparse_dataset(args.data)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read dataset: {exc}")
    try:
        lambdas = sorted(float(t) for t in args.lambdas.split(","))
    except ValueError:
        raise UsageError(f"bad --lambdas value {args.lambdas!r}")
    methods = (list(FEATSEL_METHODS) if args.methods == "all"
               else [m.strip().lower() for m in args.methods.split(",")])
    for m in methods:
        if m not in FEATSEL_METHODS:
            raise UsageError(f"unknown method {m!r}")
    if args.budget is not None and "subsup" in methods:
        raise UsageError("--budget cannot constrain subsup; leave subsup out of --methods")
    partition = None
    if args.cost == "partition_sqrt":
        if not args.blocks:
            raise UsageError("partition_sqrt cost needs --blocks")
        doc = _read_json(args.blocks, "blocks")
        try:
            partition = (doc["blocks"], doc.get("weights", [1.0] * ds.n_features))
        except (AttributeError, KeyError, TypeError) as exc:
            raise UsageError(f"malformed blocks {args.blocks}: {exc!r}")
    # every cost model is built, and its lambda checked, before any output
    costs = [CostModel.modular_cardinality(lam) if partition is None
             else CostModel.partition_sqrt(*partition, lam) for lam in lambdas]
    majority = float(np.max(np.bincount(
        np.unique(ds.labels, return_inverse=True)[1])) / ds.n_rows)

    print(f"dataset: {args.data} ({ds.n_rows} rows, {ds.n_features} features)")
    print(f"seed: {args.seed}")
    rows = []
    for cost in costs:
        lam = cost.lam
        objective = build_objective(ds, cost, args.alpha, "non_factored")
        for method in sorted(methods):
            selected = _run_method(method, ds, cost, objective, args)
            obj_val = objective.value(selected)
            cost_val = evaluate_cost(cost, selected)
            acc = (naive_bayes_cv(ds, selected, args.folds, args.alpha, args.seed)
                   if selected else majority)
            rows.append({"lambda": lam, "method": method,
                         "selected_features": sorted(selected),
                         "objective": obj_val, "cost": cost_val, "accuracy": acc})
            print(f"lambda={lam:g} method={method} k={len(selected)} "
                  f"objective={obj_val:.6f} cost={cost_val:.6f} accuracy={acc:.4f}")
    rows.sort(key=lambda r: (r["lambda"], r["method"]))
    if args.out:
        with open(args.out + ".json", "w") as fh:
            json.dump({"seed": args.seed, "alpha": args.alpha, "folds": args.folds,
                       "results": rows}, fh, indent=2)
            fh.write("\n")
        with open(args.out + ".csv", "w") as fh:
            fh.write("lambda,method,n_selected,objective,cost,accuracy,selected\n")
            for r in rows:
                sel = " ".join(map(str, r["selected_features"]))
                fh.write(f"{r['lambda']:g},{r['method']},{len(r['selected_features'])},"
                         f"{r['objective']!r},{r['cost']!r},{r['accuracy']!r},{sel}\n")
    return 0


def _run_method(method: str, ds, cost, objective, args: argparse.Namespace) -> frozenset:
    if method in ("grf", "grnf"):
        selected, _ = greedy_select(ds, cost, method, args.budget, args.alpha)
        return selected
    constraint = (Constraint.none() if args.budget is None
                  else Constraint.cardinality_le(min(args.budget, ds.n_features)))
    opts = _solver_options(args)
    return SOLVERS[method](objective.instance, opts, constraint).final_set


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # argv[0] is the command, as argv parsed
            args = parser.parse_args([argv[0], *_config_flags(args.config), *argv[1:]])
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
