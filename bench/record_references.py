"""Record the reference final set and value of every op on the default seeds.

    python3 bench/record_references.py [workload ...]

Writes ``bench/references.json``, which ``run.py`` reads to fail any op
whose final value is worse than the one recorded here.  Run it only when
the workloads change, never to absorb a result that got worse.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

DEFAULT_SEEDS = range(10)


def record(name: str, seed: int) -> list[dict]:
    ops = run.setup(workloads.WORKLOADS[name], seed, [])
    results = run.run_round(ops)
    out = []
    for op, r in zip(ops, results):
        why = run.check(op, r, None)
        if why is not None:
            raise SystemExit(f"{name} seed {seed} {op.label}: {why}")
        out.append({"label": op.label, "n": op.n, "set": sorted(r.trace.final_set),
                    "value": r.trace.final_value})
    return out


def dump(refs: dict) -> str:
    """JSON with one op record per line."""
    workloads_out = []
    for name in sorted(refs):
        seeds = [f'  "{seed}": [\n' + ",\n".join("   " + json.dumps(r) for r in records) + "]"
                 for seed, records in sorted(refs[name].items(), key=lambda kv: int(kv[0]))]
        workloads_out.append(f' "{name}": {{\n' + ",\n".join(seeds) + "}")
    return "{\n" + ",\n".join(workloads_out) + "}\n"


def main(names: list[str]) -> None:
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    for name in names or sorted(workloads.WORKLOADS):
        refs[name] = {str(seed): record(name, seed) for seed in DEFAULT_SEEDS}
        run.REFERENCES.write_text(dump(refs))
        print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
