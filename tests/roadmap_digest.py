"""Print the digest of the 139 ``cli.run`` documents that ROADMAP names.

Run from the repository root:

    python tests/roadmap_digest.py

It prints the document count and one sha256, and takes a few seconds.  The
documents, in this order:

1. one schedule cycle (``bench/workloads.py``, ``CYCLE`` ops from index 0)
   of every workload, in ``WORKLOADS`` order, at seed 1 and then at seed 2:
   76 documents, exact mode as the bench sends them;
2. the ``correlator``, ``gram``, ``amplitude`` and ``hsnorm`` configs of
   part 1, in the same order, with every "p/q" string read as the nearest
   float and ``"mode": "float"`` added: 60 documents;
3. ``verify`` with the config ``{"seed": s}`` (every suite) for s = 1, 7 and
   2026: 3 documents.

Each document is ``cli.run(command, config)``, which leaves out the
``timing`` entry; everything else is kept, the float eigen fields of a Gram
report included.  The hash is over the documents' ``json.dumps(doc,
sort_keys=True)`` UTF-8 bytes, concatenated with no separator.  A call that
raises stops the script.  Nothing under ``bench/`` is written.
"""
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # no bytecode cache under bench/

from freeboson.cli import run  # noqa: E402
from workloads import CYCLE, WORKLOADS, op  # noqa: E402


def _as_floats(value):
    """The config with every "p/q" string read as a float."""
    if isinstance(value, str):
        return float(Fraction(value))
    if isinstance(value, list):
        return [_as_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_floats(v) for k, v in value.items()}
    return value


def documents() -> list:
    exact = [op(w, seed, i) for seed in (1, 2) for w in WORKLOADS for i in range(CYCLE[w])]
    floated = [
        (command, {**_as_floats(config), "mode": "float"})
        for command, config in exact
        if command != "verify"
    ]
    checks = [("verify", {"seed": seed}) for seed in (1, 7, 2026)]
    return [run(command, config) for command, config in exact + floated + checks]


def main() -> None:
    docs = documents()
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    print(len(docs), h.hexdigest())


if __name__ == "__main__":
    main()
