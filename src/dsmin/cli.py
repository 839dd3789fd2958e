"""Command-line driver: optimize instances, certify bounds, decompose, select features.

Exit codes: 0 success, 1 usage/parse/validation problem, 2 runtime failure.
Options may also come from a JSON config file (``--config``); explicit
flags win over config entries.  Every report prints the master seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import decomposition_spec_pair, ds_decompose, minima_lower_bounds
from .constraints import Constraint
from .core import GroundSet, SetFunctionOracle, brute_force_minimize, check_submodular
from .featsel import (CostModel, build_objective, evaluate_cost, greedy_select,
                      naive_bayes_cv, parse_sparse_dataset)
from .functions import FunctionSpec, build_function, load_instance
from .sfm import min_norm_point
from .solvers import (DSInstance, SolverError, SolverOptions, mod_mod, sub_sup,
                      sup_sub)

ALGORITHMS = ("subsup", "supsub", "modmod")
FEATSEL_METHODS = ("grf", "grnf", "subsup", "supsub", "modmod")


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
    opt.add_argument("--algo", choices=ALGORITHMS)
    opt.add_argument("--epsilon", type=float)
    opt.add_argument("--seed", type=int)
    opt.add_argument("--heuristic", choices=("random", "g_gain", "v_gain"))
    opt.add_argument("--ub-strategy", dest="ub_strategy",
                     choices=("best_of_both", "alternate"))
    opt.add_argument("--constraint", help="card_le=K, card_eq=K, or @file.json")
    opt.add_argument("--max-iters", dest="max_iters", type=int)
    opt.add_argument("--dg-mode", dest="dg_mode",
                     choices=("deterministic", "randomized"))
    opt.add_argument("--out", help="prefix for trace .json and .csv files")
    opt.add_argument("--config")
    opt.set_defaults(func=cmd_optimize)

    cert = sub.add_parser("certify", help="print lower-bound certificates")
    cert.add_argument("--instance", required=True)
    cert.add_argument("--seed", type=int)
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
    fs.add_argument("--lambdas", help="comma-separated trade-off values")
    fs.add_argument("--methods", help="'all' or comma list of grf,grnf,subsup,supsub,modmod")
    fs.add_argument("--cost", choices=("modular", "partition_sqrt"))
    fs.add_argument("--blocks", help="JSON file {blocks: [[...]], weights?: [...]}")
    fs.add_argument("--alpha", type=float)
    fs.add_argument("--folds", type=int)
    fs.add_argument("--budget", type=int)
    fs.add_argument("--seed", type=int)
    fs.add_argument("--max-iters", dest="max_iters", type=int)
    fs.add_argument("--out", help="prefix for results .json and .csv")
    fs.add_argument("--config")
    fs.set_defaults(func=cmd_featsel)
    return p


_DEFAULTS = {
    "algo": "modmod", "epsilon": 0.0, "seed": 0, "heuristic": "g_gain",
    "ub_strategy": "best_of_both", "constraint": None, "max_iters": 200,
    "dg_mode": "deterministic", "out": None,
    "lambdas": "0.01", "methods": "all", "cost": "modular", "blocks": None,
    "alpha": 1.0, "folds": 10, "budget": None,
}


def _effective(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        for k, v in doc.items():
            cfg[k.replace("-", "_")] = v
    for k, v in vars(args).items():
        if k in ("func", "command", "config"):
            continue
        if v is not None:
            cfg[k] = v
    return cfg


def _parse_constraint(text: str | None) -> Constraint:
    if not text:
        return Constraint.none()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return Constraint.from_dict(json.load(fh))
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


def cmd_optimize(cfg: dict) -> int:
    ground, f, g = _load_parts(cfg["instance"])
    constraint = _parse_constraint(cfg.get("constraint"))
    algo = cfg["algo"]
    if algo == "subsup" and constraint.kind != "none":
        raise UsageError("subsup does not support constraints")
    if algo == "supsub" and constraint.kind not in ("none", "cardinality_le"):
        raise UsageError("supsub supports only card_le constraints")
    constraint.validate(ground.n)
    _validate_instance(f, g)
    inst = DSInstance(f, g)
    opts = SolverOptions(epsilon=cfg["epsilon"], max_iters=cfg["max_iters"],
                         heuristic=cfg["heuristic"], ub_strategy=cfg["ub_strategy"],
                         seed=cfg["seed"], dg_mode=cfg["dg_mode"])
    if algo == "subsup":
        trace = sub_sup(inst, opts)
    elif algo == "supsub":
        trace = sup_sub(inst, opts, constraint)
    else:
        trace = mod_mod(inst, opts, constraint)
    print(f"algorithm: {algo}")
    print(f"seed: {opts.seed}")
    print(f"final set: {sorted(trace.final_set)}")
    print(f"final value: {trace.final_value:.6f}")
    print(f"iterations: {trace.n_accepted}")
    print(f"oracle calls: {trace.iterates[-1].oracle_calls}")
    print(f"termination: {trace.termination}")
    if trace.locally_optimal is not None:
        print(f"locally optimal: {str(trace.locally_optimal).lower()}")
    if cfg.get("out"):
        trace.write_json(cfg["out"] + ".json")
        trace.write_csv(cfg["out"] + ".csv")
    return 0


def _load_parts(path: str):
    try:
        ground, f, g, _ = load_instance(path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"cannot load instance {path}: {exc}")
    return ground, f, g


BRUTE_CERTIFY_MAX_N = 20


def cmd_certify(cfg: dict) -> int:
    ground, f, g = _load_parts(cfg["instance"])
    _validate_instance(f, g)
    bound1, bound2 = minima_lower_bounds(f, g, min_norm_point)
    lines = [f"instance: {cfg['instance']}",
             f"n: {ground.n}",
             f"seed: {cfg['seed']}",
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
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(report + "\n")
    return 0


def cmd_decompose(cfg: dict) -> int:
    path = cfg["instance"]
    try:
        with open(path) as fh:
            doc = json.load(fh)
        ground = GroundSet(int(doc["n"]))
        v = build_function(FunctionSpec.from_dict(doc["v"]), ground)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise UsageError(f"cannot load function document {path}: {exc}")
    dec = ds_decompose(v, doc.get("alpha_lb"))
    f_spec, g_spec = decomposition_spec_pair(v, dec)
    out_doc = {"n": ground.n, "f": f_spec.to_dict(), "g": g_spec.to_dict(),
               "alpha": dec.alpha, "beta": dec.beta, "scale": dec.scale}
    print(f"alpha: {dec.alpha:.6f}")
    print(f"beta: {dec.beta:.6f}")
    print(f"scale: {dec.scale:.6f}")
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            json.dump(out_doc, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(out_doc, sys.stdout, indent=2)
        print()
    return 0


def _cost_model(cfg: dict, n: int) -> CostModel:
    lam = cfg["_lam"]
    if cfg["cost"] == "modular":
        return CostModel.modular_cardinality(lam)
    if not cfg.get("blocks"):
        raise UsageError("partition_sqrt cost needs --blocks")
    with open(cfg["blocks"]) as fh:
        doc = json.load(fh)
    blocks = doc["blocks"]
    weights = doc.get("weights", [1.0] * n)
    return CostModel.partition_sqrt(blocks, weights, lam)


def cmd_featsel(cfg: dict) -> int:
    try:
        ds = parse_sparse_dataset(cfg["data"])
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read dataset: {exc}")
    try:
        lambdas = sorted(float(t) for t in str(cfg["lambdas"]).split(","))
    except ValueError:
        raise UsageError(f"bad --lambdas value {cfg['lambdas']!r}")
    methods = (list(FEATSEL_METHODS) if cfg["methods"] == "all"
               else [m.strip().lower() for m in cfg["methods"].split(",")])
    for m in methods:
        if m not in FEATSEL_METHODS:
            raise UsageError(f"unknown method {m!r}")
    if cfg.get("budget") is not None and "subsup" in methods:
        raise UsageError("--budget cannot constrain subsup; leave subsup out of --methods")
    alpha, folds, seed = cfg["alpha"], cfg["folds"], cfg["seed"]
    majority = float(np.max(np.bincount(
        np.unique(ds.labels, return_inverse=True)[1])) / ds.n_rows)

    print(f"dataset: {cfg['data']} ({ds.n_rows} rows, {ds.n_features} features)")
    print(f"seed: {seed}")
    rows = []
    for lam in lambdas:
        cfg["_lam"] = lam
        cost = _cost_model(cfg, ds.n_features)
        objective = build_objective(ds, cost, alpha, "non_factored")
        for method in sorted(methods):
            selected = _run_method(method, ds, cost, objective, cfg)
            obj_val = objective.value(selected)
            cost_val = evaluate_cost(cost, selected)
            acc = (naive_bayes_cv(ds, selected, folds, alpha, seed)
                   if selected else majority)
            rows.append({"lambda": lam, "method": method,
                         "selected_features": sorted(selected),
                         "objective": obj_val, "cost": cost_val, "accuracy": acc})
            print(f"lambda={lam:g} method={method} k={len(selected)} "
                  f"objective={obj_val:.6f} cost={cost_val:.6f} accuracy={acc:.4f}")
    rows.sort(key=lambda r: (r["lambda"], r["method"]))
    if cfg.get("out"):
        with open(cfg["out"] + ".json", "w") as fh:
            json.dump({"seed": seed, "alpha": alpha, "folds": folds,
                       "results": rows}, fh, indent=2)
            fh.write("\n")
        with open(cfg["out"] + ".csv", "w") as fh:
            fh.write("lambda,method,n_selected,objective,cost,accuracy,selected\n")
            for r in rows:
                sel = " ".join(map(str, r["selected_features"]))
                fh.write(f"{r['lambda']:g},{r['method']},{len(r['selected_features'])},"
                         f"{r['objective']!r},{r['cost']!r},{r['accuracy']!r},{sel}\n")
    return 0


def _run_method(method: str, ds, cost, objective, cfg: dict) -> frozenset:
    budget = cfg.get("budget")
    if method in ("grf", "grnf"):
        selected, _ = greedy_select(ds, cost, method, budget, cfg["alpha"])
        return selected
    opts = SolverOptions(epsilon=cfg.get("epsilon", 0.0),
                         max_iters=cfg.get("max_iters", 200), seed=cfg["seed"])
    if method == "subsup":
        return sub_sup(objective.instance, opts).final_set
    constraint = (Constraint.none() if budget is None
                  else Constraint.cardinality_le(min(budget, ds.n_features)))
    solver = sup_sub if method == "supsub" else mod_mod
    return solver(objective.instance, opts, constraint).final_set


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _effective(args)
        return args.func(cfg)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
