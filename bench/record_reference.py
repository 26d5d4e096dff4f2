"""Record the reference digests of each workload's reference-seed stream.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs the first ops of each workload's stream under the reference seed
through ``freeboson.cli.main`` and writes ``reference/<workload>.json``.
Every output must pass ``checks.check_output`` before it is recorded.
Record only at a commit whose outputs are trusted: later runs count any
difference from these digests as a failed op.
"""
from __future__ import annotations

import json
import sys

import checks
import run
import workloads

REFERENCE_SEED = 1

# Ops recorded per workload: several schedule cycles, more than one timed
# run reaches at the recording commit.
REFERENCE_OPS = {"pairing-heavy": 128, "gram-reflection": 108, "hs-sweep": 50, "verify-suites": 64}


def record(cli, workload: str) -> dict:
    ops = [run.Op(i, *workloads.op(workload, REFERENCE_SEED, i), "record")
           for i in range(REFERENCE_OPS[workload])]
    run._run_ops(cli, ops)
    recorded = []
    for op in ops:
        problem = run._verdict(op, {"ops": []})
        if problem:
            raise SystemExit(f"{workload} op {op.index}: {problem}")
        recorded.append([checks.config_digest(op.command, op.config), checks.digest(op.doc)])
    return {"workload": workload, "seed": REFERENCE_SEED, "ops": recorded}


def main(argv: list[str]) -> int:
    cli = run._import_cli()
    run.WORK.mkdir(parents=True, exist_ok=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        doc = record(cli, workload)
        with open(checks.REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"{workload}: {len(doc['ops'])} ops recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
