"""Correctness checks on CLI outputs: reference digests and invariants.

Three checks, all made outside the timed region:

* ``digest`` reduces an output document to the part that exact mode fixes
  (it drops float diagnostics of ``gram`` and the free-text ``detail`` of
  ``verify``) and hashes it.  The digests of each workload's reference-seed
  stream were recorded at the commit that added the benchmark and live in
  ``reference/<workload>.json``.
* ``check_output`` tests what must hold for any seed: an independent exact
  evaluation of every correlator word and its pairing count, exact
  Hermiticity and a positive verdict for Gram matrices, closed-form tuple
  counts, monotonicity and the bound for truncated HS sums, one entry per
  amplitude state, and passing verify suites.
* ``compare_reference`` flags any op whose config was recorded and whose
  output digest differs from the record.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


# ---------------------------------------------------------------- digests

def projection(doc: dict) -> dict:
    """The exact part of an output document."""
    doc = dict(doc)
    for key in ("min_eigenvalue", "hermiticity_defect", "witness", "timing"):
        doc.pop(key, None)
    if doc.get("command") == "verify":
        doc["suites"] = [{"name": s["name"], "passed": s["passed"]} for s in doc["suites"]]
    return doc


def digest(doc: dict) -> str:
    text = json.dumps(projection(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def config_digest(command: str, config: dict) -> str:
    text = command + json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def load_reference(workload: str) -> dict:
    """{"seed": int, "ops": [[config digest, output digest], ...]}."""
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(reference: dict, index: int, command: str, config: dict, doc: dict) -> str | None:
    """A mismatch message, or None when the op matches or has no record.

    An op has a record when the reference holds an op at its index with the
    same config, so only the inputs that were recorded are compared.
    """
    ops = reference["ops"]
    if index >= len(ops) or ops[index][0] != config_digest(command, config):
        return None
    got = digest(doc)
    if got != ops[index][1]:
        return f"op {index}: output digest {got} differs from reference {ops[index][1]}"
    return None


# ---------------------------------------------------------------- exact values

def _gaussian(re, im=0) -> tuple[Fraction, Fraction]:
    return Fraction(re), Fraction(im)


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _inv(a):
    r = a[0] * a[0] + a[1] * a[1]
    return a[0] / r, -a[1] / r


def decode_scalar(encoded) -> dict[int, tuple[Fraction, Fraction]]:
    """CLI scalar encoding -> {squarefree s: (re, im)}, zero terms dropped."""
    if isinstance(encoded, str):
        terms = {1: _gaussian(encoded)}
    elif isinstance(encoded, list) and len(encoded) == 2 and all(isinstance(x, str) for x in encoded):
        terms = {1: _gaussian(*encoded)}
    elif isinstance(encoded, dict) and set(encoded) == {"radicals"}:
        terms = {int(s): _gaussian(*v) for s, v in encoded["radicals"].items()}
    else:
        raise ValueError(f"not an exact scalar encoding: {encoded!r}")
    return {s: v for s, v in terms.items() if v[0] or v[1]}


def _kernel(m1: int, z1, m2: int, z2):
    c = Fraction(math.factorial(m1 + m2 - 1) * (-1 if m1 % 2 else 1), 2)
    inv = _inv((z1[0] - z2[0], z1[1] - z2[1]))
    out = (c, Fraction(0))
    for _ in range(m1 + m2):
        out = _mul(out, inv)
    return out


def word_expectation(word: list) -> tuple[tuple[Fraction, Fraction], int]:
    """(exact expectation, number of matchings) of a config word.

    Hafnian of the pair-kernel matrix by dynamic programming over the set
    of unmatched insertions; pairs inside one Wick group are excluded.
    """
    flat = []
    for gid, group in enumerate(word):
        for ins in group:
            flat.append((gid, ins["m"], _gaussian(ins.get("re", 0), ins.get("im", 0))))
    n = len(flat)
    pair = {}
    for i in range(n):
        for j in range(i + 1, n):
            if flat[i][0] != flat[j][0]:
                pair[i, j] = _kernel(flat[i][1], flat[i][2], flat[j][1], flat[j][2])
    memo = {0: ((Fraction(1), Fraction(0)), 1)}

    def rec(mask: int):
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        re = im = Fraction(0)
        count = 0
        j_mask = rest
        while j_mask:
            j = (j_mask & -j_mask).bit_length() - 1
            j_mask &= j_mask - 1
            if (i, j) not in pair:
                continue
            (sre, sim), scount = rec(rest & ~(1 << j))
            if scount:
                t = _mul(pair[i, j], (sre, sim))
                re += t[0]
                im += t[1]
                count += scount
        memo[mask] = ((re, im), count)
        return memo[mask]

    if n % 2:
        return (Fraction(0), Fraction(0)), 0
    return rec((1 << n) - 1)


# ---------------------------------------------------------------- invariants

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _check_correlator(config: dict, doc: dict) -> None:
    words = config["words"]
    _require(len(doc["expectations"]) == len(words), "one expectation per word")
    pairings = 0
    for word, encoded in zip(words, doc["expectations"]):
        value, count = word_expectation(word)
        expected = {1: value} if value[0] or value[1] else {}
        _require(decode_scalar(encoded) == expected, f"expectation {encoded!r} != {value!r}")
        pairings += count
    _require(doc["pairings"] == pairings, f"pairings {doc['pairings']} != {pairings}")


def _conj(terms: dict) -> dict:
    return {s: (re, -im) for s, (re, im) in terms.items()}


def _check_gram(config: dict, doc: dict) -> None:
    n = len(config["states"])
    matrix = [[decode_scalar(v) for v in row] for row in doc["matrix"]]
    _require(doc["size"] == n and len(matrix) == n and all(len(r) == n for r in matrix),
             "matrix is n x n")
    for i in range(n):
        diag = matrix[i][i]
        _require(set(diag) == {1} and diag[1][1] == 0 and diag[1][0] > 0,
                 f"diagonal entry {i} is not a positive rational")
        for j in range(i + 1, n):
            _require(matrix[i][j] == _conj(matrix[j][i]), f"entry ({i},{j}) breaks Hermiticity")
    _require(doc["psd"] is True, "Gram matrix reported not positive semidefinite")


def _regime(discs: list) -> bool:
    centres = [_gaussian(d.get("a_re", 0), d.get("a_im", 0)) for d in discs]
    radius_sq = max(Fraction(d.get("q_re", 0)) ** 2 + Fraction(d.get("q_im", 0)) ** 2 for d in discs)
    gap_sq = min(
        (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
        for k, a in enumerate(centres)
        for b in centres[k + 1 :]
    )
    return gap_sq > 16 * len(discs) * radius_sq


def _check_hsnorm(config: dict, doc: dict) -> None:
    r = len(config["discs"])
    M, N = config["truncation"]["M"], config["truncation"]["N"]
    rows = doc["rows"]
    _require(len(rows) == N + 1, "one row per insertion level")
    _require(doc["regime"] == _regime(config["discs"]), "regime flag")
    previous = Fraction(0)
    for t, row in enumerate(rows):
        # index tuples = occupation vectors over r*M modes with <= t quanta
        _require(row["total_insertions"] == t, "row order")
        _require(row["tuple_count"] == math.comb(t + r * M, t), f"tuple count at level {t}")
        value = Fraction(row["partial_sum"])
        _require(value >= previous, f"partial sum decreases at level {t}")
        previous = value
    _require(Fraction(rows[0]["partial_sum"]) == 1, "vacuum entry is 1")
    if doc["regime"]:
        _require(previous <= Fraction(doc["bound"]), "partial sum above the closed-form bound")
    else:
        _require(doc["bound"] is None, "bound outside the regime")


def _check_amplitude(config: dict, doc: dict) -> None:
    _require(doc["discs"] == len(config["discs"]), "disc count")
    _require(len(doc["entries"]) == len(config["states"]), "one entry per state tuple")
    for encoded in doc["entries"]:
        decode_scalar(encoded)


def _check_verify(config: dict, doc: dict) -> None:
    names = [s["name"] for s in doc["suites"]]
    _require(names == config["suites"], f"suites run {names} != {config['suites']}")
    _require(doc["passed"] is True and all(s["passed"] for s in doc["suites"]),
             f"verify suite failed: {doc['suites']}")


_CHECKS = {
    "correlator": _check_correlator,
    "gram": _check_gram,
    "hsnorm": _check_hsnorm,
    "amplitude": _check_amplitude,
    "verify": _check_verify,
}


def check_output(command: str, config: dict, doc: dict) -> str | None:
    """A failure message when the output breaks an invariant, else None."""
    if "error" in doc:
        return f"error document: {doc['error']}"
    if doc.get("command") != command:
        return f"output is for command {doc.get('command')!r}, not {command!r}"
    try:
        _CHECKS[command](config, doc)
    except (AssertionError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"{command}: {type(exc).__name__}: {exc}"
    return None
