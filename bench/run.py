"""Benchmark for dsmin: solve time and distinct oracle calls on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload sfm_small --seed 0 --seconds 25 --trace 0

It builds the workload's inputs from the seed, then runs its list of
solver calls back to back (one client, closed loop) in a fixed number of
rounds, one per ``ROUND_SECONDS`` of ``--seconds``, and checks every
result.  Times are scaled to a reference host speed by a probe timed
between the calls (``speed.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of one traced round with ``--trace 1``.  A line
before it records the software context, which is not gated.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads a BLAS

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"
SETUP_REPEATS = 9
# Nominal length of one round on a 2-vCPU x86 VM.  The round count depends
# only on --seconds, never on how fast the host happens to be.
ROUND_SECONDS = 25.0
EQ_TOL = 1e-9


def _import_dsmin():
    if not (SRC / "dsmin" / "__init__.py").is_file():
        sys.exit(f"bench: no dsmin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dsmin
    if Path(dsmin.__file__).resolve().parent != SRC / "dsmin":
        sys.exit(f"bench: imported dsmin from {dsmin.__file__}, not from {SRC}")


_import_dsmin()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT_SPANS = {"subsup": "solvers.subsup", "supsub": "solvers.supsub",
              "modmod": "solvers.modmod", "grnf": "featsel.greedy"}


@dataclass
class Result:
    """Outcome of one op: its trace (None if it raised) and what it cost.

    ``scaled`` is ``wall`` at the reference host speed; untraced rounds only.
    """

    label: str
    trace: object
    calls: int
    wall: float
    error: str | None = None
    scaled: float | None = None


def run_round(ops, tracer: spans.Tracer | None = None) -> list[Result]:
    """Run every op once, back to back; untraced, with a speed probe
    before the first op and after each."""
    results = []
    probes = [speed.probe()] if tracer is None else None
    for op in ops:
        solve = op.solve if tracer is None else tracer.span(op.solve, ROOT_SPANS[op.solver])
        before = op.calls()
        t0 = time.perf_counter()
        try:
            trace, error = solve(), None
        except Exception as exc:  # a raising solver is a failed operation
            trace, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        results.append(Result(op.label, trace, op.calls() - before, wall, error))
        if probes is not None:
            probes.append(speed.probe())
    if probes is not None:
        for r, s in zip(results, speed.scaled([r.wall for r in results], probes)):
            r.scaled = s
    return results


def check(op, result: Result, reference: dict | None) -> str | None:
    """The failure rule for one op, outside the timed region; None if it passed."""
    if result.error is not None:
        return result.error
    trace = result.trace
    values = trace.values()
    if any(b > a + EQ_TOL * max(1.0, abs(a)) for a, b in zip(values, values[1:])):
        return "trace increases"
    if op.constraint.kind == "cardinality_le":
        if any(len(p.set) > op.constraint.k for p in trace.iterates):
            return "infeasible constrained iterate"
    elif op.solver != "grnf" and trace.locally_optimal is not True:
        return "unconstrained run not locally optimal"
    final = trace.final_value
    if abs(op.value(trace.final_set) - final) > EQ_TOL * max(1.0, abs(final)):
        return "final value does not match f - g at the final set"
    if reference is not None and final > reference["value"] + EQ_TOL * max(1.0, abs(final)):
        return f"final value {final!r} worse than reference {reference['value']!r}"
    return None


def load_references(workload: str, seed: int) -> dict | None:
    """Reference final sets and values recorded for this seed, keyed by op label."""
    if not REFERENCES.is_file():
        return None
    per_seed = json.loads(REFERENCES.read_text()).get(workload, {}).get(str(seed))
    return None if per_seed is None else {r["label"]: r for r in per_seed}


def outcome(result: Result) -> tuple:
    """What a repeat of the op must reproduce exactly."""
    if result.trace is None:
        return (result.label, result.error, result.calls)
    return (result.label, tuple(sorted(result.trace.final_set)),
            result.trace.final_value, result.calls)


def setup(build, seed: int, times: list[float]) -> list:
    """Build the ops from the seed SETUP_REPEATS times; appends each set-up's
    time at the reference speed to ``times`` and returns the last ops."""
    walls, probes = [], [speed.probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = build(seed)
        walls.append(time.perf_counter() - t0)
        probes.append(speed.probe())
    times += speed.scaled(walls, probes)
    return ops


def layer_metrics(tracer: spans.Tracer, ops, results: list[Result],
                  traced_s: float, untraced_s: float) -> dict[str, float]:
    own, count = tracer.self_times()
    m: dict[str, float] = {}
    lookups = tracer.memo_lookups
    m["core.memo.lookups"] = lookups
    m["core.memo.hit_ratio"] = tracer.memo_hits / lookups if lookups else 0.0
    m["core.affine_value.calls"] = count.get("core.affine_value", 0)
    m["core.affine_value.self_s"] = own.get("core.affine_value", 0.0)
    for side in ("f", "g"):
        m[f"functions.{side}.evals"] = count.get(f"functions.{side}", 0)
        m[f"functions.{side}.self_s"] = own.get(f"functions.{side}", 0.0)
    for layer in ("featsel.entropy", "bounds.lower", "bounds.upper",
                  "sfm.min_norm_point", "sfm.greedy_base_vertex",
                  "sfmax.double_greedy", "sfmax.local_search_max",
                  "sfmax.greedy_cardinality_max",
                  "constraints.modular_minimize_constrained",
                  "constraints.modular_maximal_minimizer",
                  "solvers.choose_permutation"):
        m[f"{layer}.calls"] = count.get(layer, 0)
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    # every min-norm point run starts with one greedy vertex before its first major cycle
    m["sfm.major_cycles"] = m["sfm.greedy_base_vertex.calls"] - m["sfm.min_norm_point.calls"]
    m["solvers.local_optimality_check.self_s"] = own.get("solvers.local_optimality_check", 0.0)
    m["solvers.self_s"] = sum(own.get(name, 0.0) for name in ROOT_SPANS.values())
    done = [(op, r) for op, r in zip(ops, results) if r.trace is not None]
    m["solvers.iterations"] = sum(r.trace.n_accepted for _, r in done)
    m["solvers.tail_s"] = sum(r.wall - r.trace.iterates[-1].elapsed for _, r in done)
    m["solvers.tail_calls"] = sum(r.calls - r.trace.iterates[-1].oracle_calls for _, r in done)
    m["solvers.calls_unreported"] = sum(
        r.calls - r.trace.to_json_dict()["final"]["oracle_calls"] for _, r in done)
    for solver, name in ROOT_SPANS.items():
        key = "featsel.greedy.wall_s" if solver == "grnf" else f"{name}.wall_s"
        m[key] = sum(r.wall for op, r in zip(ops, results) if op.solver == solver)
    m["trace.overhead"] = traced_s / untraced_s - 1.0
    return m


def context() -> dict:
    """Software context of the run; reported, not gated."""
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "dsmin").glob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "commit": _git_commit(), "src_dsmin_lines": lines}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    build = workloads.WORKLOADS[args.workload]
    references = load_references(args.workload, args.seed)
    setup_times: list[float] = []
    rounds: list[list[Result]] = []
    failures: list[str] = []
    problems: list[str] = []

    def judge(ops, results):
        for op, r in zip(ops, results):
            why = check(op, r, None if references is None else references.get(op.label))
            if why is not None:
                failures.append(f"{op.label}: {why}")

    for _ in range(1 if args.trace else max(1, int(args.seconds / ROUND_SECONDS))):
        ops = setup(build, args.seed, setup_times)
        rounds.append(run_round(ops))
        judge(ops, rounds[-1])
    if any(list(map(outcome, r)) != list(map(outcome, rounds[0])) for r in rounds[1:]):
        problems.append("rounds of the same seed differ")
    attempted = len(ops) * len(rounds)

    if args.trace:
        ops = setup(build, args.seed, setup_times)
        before = spans.current_attributes()
        tracer = spans.Tracer()
        with tracer:
            traced = run_round(ops, tracer)
        judge(ops, traced)
        attempted += len(ops)
        traced_s = sum(r.wall for r in traced)
        if spans.current_attributes() != before:
            problems.append("a traced wrapper was not restored")
        if list(map(outcome, traced)) != list(map(outcome, rounds[0])):
            problems.append("traced and untraced rounds differ")
        problems += tracer.problems(set(ROOT_SPANS.values()), traced_s)
        metrics = layer_metrics(tracer, ops, traced, traced_s,
                                sum(r.wall for r in rounds[0]))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": sum(statistics.median(r.scaled for r in repeats)
                           for repeats in zip(*rounds)),
            "oracle_calls": sum(r.calls for r in rounds[0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    for line in failures:
        print(f"bench: failed {line}", file=sys.stderr)
    for line in problems:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({"context": context(), "workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "reference_checked": references is not None,
                      "solve_wall_s": sum(r.wall for r in rounds[0])}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
