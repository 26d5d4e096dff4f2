"""Command line front end.

Subcommands:
    correlator   expectations of words read from a JSON config
    gram         Gram matrix and positivity report for a list of states
    amplitude    multi-disc amplitude entries for occupation tuples
    hsnorm       truncated Hilbert-Schmidt partial sums with the closed-form bound
    verify       run the cross-module identity suites

Each command is declared once, in ``_COMMANDS``: its handler and the config
keys it reads.  ``run`` refuses any other key and writes ``command`` into the
document; for a command that reads ``mode`` it also validates the mode,
hands the handler ``exact`` and writes ``mode``.  The parser builds one
subcommand per entry, with --mode and a required --config for a command
that reads a mode.

Results are JSON documents on stdout (or --out).  In exact mode the output
is byte-identical across runs; rationals are rendered as "p/q" strings.
Exit codes: 0 success (--help included), 1 a usage error of the command
line, a configuration, domain or resource error (an exact output integer of
more than MAX_DIGITS digits included) or a float beyond range, 2 verify
failure, 3 any other exception (a defect of the engine, a limit of the
interpreter, or a reader of stdout that went away, after which nothing more
is written).  Every error leaves the same
{"error": {"module", "type", "message"}} document on stdout, nothing on
stderr and no traceback.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import cache

from . import scalars
from .algebra import Insertion, LinearCombination, WickGroup, WickWord
from .amplitude import Disc, DiscConfiguration, amplitude_entry, hs_bound, hs_truncated
from .correlator import expect_combo
from .errors import EngineError, ResourceError, SchemaError
from .fock import FockIndex
from .hilbert import gram
from .pairing import matching_count
from .verify import run_suites

# Largest number of decimal digits in one integer of an exact output: the
# conversion to decimal takes time quadratic in the digits, which is why the
# interpreter caps it at 4300 by default.  A fixed guard like
# pairing.MAX_STATES.  _MAX_BITS is the bit length of 10^MAX_DIGITS, so a
# shorter integer has at most MAX_DIGITS digits.
MAX_DIGITS = 100_000
_MAX_BITS = int(MAX_DIGITS * math.log2(10)) + 1
_MODES = ("exact", "float")

# ---------------------------------------------------------------- scalars i/o

def _parse_component(value, exact: bool, where: str) -> Fraction | float:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number, got a boolean")
    if exact:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            # an exponent asks Fraction for a power of ten of any size
            if "e" in value or "E" in value:
                raise SchemaError(f"{where}: exact mode takes no exponents, got {value!r}")
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"{where}: cannot parse {value!r} as a rational") from None
        raise SchemaError(
            f"{where}: exact mode takes integers or \"p/q\" strings, got {value!r}"
        )
    if isinstance(value, (int, float)):
        # the bound rejects inf and integers too large for a float; NaN fails it too
        if abs(value) <= sys.float_info.max:
            return float(value)
        raise SchemaError(f"{where}: float mode takes finite numbers within float range")
    raise SchemaError(f"{where}: float mode takes numbers only, got {value!r}")


def _parse_point(obj: dict, exact: bool, where: str, re_key="re", im_key="im"):
    re = _parse_component(obj.get(re_key, 0), exact, f"{where}.{re_key}")
    im = _parse_component(obj.get(im_key, 0), exact, f"{where}.{im_key}")
    if exact:
        return scalars.rational(re, im)
    return complex(re, im)


def _decimal(x: Fraction | int) -> str:
    """x in decimal, "p/q" for a fraction, with the interpreter's digit cap
    lifted for the conversion and restored after it.

    Raises ResourceError, before any conversion, when the numerator or the
    denominator has more than MAX_DIGITS digits.
    """
    for n in (x.numerator, x.denominator):
        if n.bit_length() >= _MAX_BITS and abs(n) >= 10 ** MAX_DIGITS:
            raise ResourceError(
                "cli", f"an exact output holds an integer of more than {MAX_DIGITS} digits"
            )
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(cap)


def _scalar_json(value):
    """Encode a scalar for JSON output.

    rational        -> "p/q" string
    gaussian        -> [re_str, im_str]
    (re + i im) sqrt(s) -> {"radicals": {"s": [re_str, im_str]}}, s > 1
    float           -> [re, im] numbers
    """
    if isinstance(value, scalars.Exact):
        if value.s > 1:
            return {"radicals": {_decimal(value.s): [_decimal(value.re), _decimal(value.im)]}}
        return [_decimal(value.re), _decimal(value.im)] if value.im else _decimal(value.re)
    z = complex(value)
    return [z.real, z.imag]


# ---------------------------------------------------------------- config -> objects

def _require(config: dict, key: str, command: str):
    if key not in config:
        raise SchemaError(f"{command} config requires the key {key!r}")
    return config[key]


def _entries(config: dict, key: str, command: str) -> list:
    entries = _require(config, key, command)
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{command}.{key}: expected a non-empty list")
    return entries


def _parse_insertion(obj, exact: bool, where: str) -> Insertion:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an insertion object")
    extra = set(obj) - {"m", "re", "im"}
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
    m = obj.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise SchemaError(f"{where}.m: expected a positive integer order")
    return Insertion(m, _parse_point(obj, exact, where))


def _parse_word(obj, exact: bool, where: str) -> WickWord:
    """A word is a list of groups; each group is a list of insertions.

    A plain product of fields is the word of singleton groups (a
    normal-ordered single field is the field), the same word
    ``WickWord.plain`` builds.
    """
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty list of groups")
    built = []
    for i, grp in enumerate(obj):
        if not isinstance(grp, list) or not grp:
            raise SchemaError(f"{where}[{i}]: expected a non-empty list of insertions")
        built.append(
            WickGroup(
                tuple(
                    _parse_insertion(e, exact, f"{where}[{i}][{j}]")
                    for j, e in enumerate(grp)
                )
            )
        )
    return WickWord(tuple(built))


def _parse_discs(entries, exact: bool, command: str) -> DiscConfiguration:
    if not isinstance(entries, list):
        raise SchemaError(f"{command}.discs: expected a list")
    discs = []
    for i, obj in enumerate(entries):
        if not isinstance(obj, dict):
            raise SchemaError(f"{command}.discs[{i}]: expected an object")
        extra = set(obj) - {"a_re", "a_im", "q_re", "q_im"}
        if extra:
            raise SchemaError(f"{command}.discs[{i}]: unknown keys {sorted(extra)}")
        center = _parse_point(obj, exact, f"{command}.discs[{i}]", "a_re", "a_im")
        q = _parse_point(obj, exact, f"{command}.discs[{i}]", "q_re", "q_im")
        discs.append(Disc(center, q))
    return DiscConfiguration(tuple(discs))


def _parse_occupations(obj, where: str) -> FockIndex:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an occupation map")
    occ = {}
    for key, count in obj.items():
        try:
            mode = int(key)
        except (TypeError, ValueError):
            mode = None
        # one spelling per mode: "01" or "1_0" would alias another key
        if mode is None or key != str(mode):
            raise SchemaError(f"{where}: mode keys must be decimal integers, got {key!r}")
        if mode < 1:
            raise SchemaError(f"{where}: modes are positive, got {mode}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise SchemaError(f"{where}[{key}]: counts are positive integers")
        occ[mode] = count
    return FockIndex.of(occ)


# ---------------------------------------------------------------- commands

def _run_correlator(config: dict, exact: bool) -> dict:
    expectations = []
    pairings = 0
    for i, obj in enumerate(_entries(config, "words", "correlator")):
        word = _parse_word(obj, exact, f"words[{i}]")
        expectations.append(_scalar_json(expect_combo(LinearCombination.of(word))))
        pairings += matching_count([len(g) for g in word.groups])
    return {"expectations": expectations, "pairings": pairings}


def _run_gram(config: dict, exact: bool) -> dict:
    entries = _entries(config, "states", "gram")
    tol = config.get("tolerance", 1e-10)
    # the upper end rejects inf and integers too large for a float; NaN fails both
    finite = isinstance(tol, (int, float)) and 0 < tol <= sys.float_info.max
    if isinstance(tol, bool) or not finite:
        raise SchemaError("gram.tolerance: expected a positive finite number")
    states = [_parse_word(obj, exact, f"states[{i}]") for i, obj in enumerate(entries)]
    report = gram(states, tol=float(tol))
    doc = {
        "size": report.size,
        "matrix": [[_scalar_json(v) for v in row] for row in report.matrix],
        "min_eigenvalue": report.min_eigenvalue,
        "hermiticity_defect": report.hermiticity_defect,
        "tolerance": float(tol),
        "psd": report.psd,
    }
    if report.witness is not None:
        doc["witness"] = [[z.real, z.imag] for z in report.witness]
    return doc


def _run_amplitude(config: dict, exact: bool) -> dict:
    discs = _parse_discs(_require(config, "discs", "amplitude"), exact, "amplitude")
    entries = []
    for i, tup in enumerate(_entries(config, "states", "amplitude")):
        if not isinstance(tup, list) or len(tup) != len(discs.discs):
            raise SchemaError(
                f"amplitude.states[{i}]: expected one occupation map per disc "
                f"({len(discs.discs)} discs)"
            )
        indices = tuple(
            _parse_occupations(obj, f"amplitude.states[{i}][{j}]")
            for j, obj in enumerate(tup)
        )
        entries.append(_scalar_json(amplitude_entry(discs, indices)))
    return {"discs": len(discs.discs), "entries": entries}


def _run_hsnorm(config: dict, exact: bool) -> dict:
    discs = _parse_discs(_require(config, "discs", "hsnorm"), exact, "hsnorm")
    trunc = _require(config, "truncation", "hsnorm")
    if not isinstance(trunc, dict) or set(trunc) != {"M", "N"}:
        raise SchemaError("hsnorm.truncation: expected an object with keys M and N")
    M, N = trunc["M"], trunc["N"]
    for label, v, least in (("M", M, 1), ("N", N, 0)):
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            kind = "a positive" if least else "a non-negative"
            raise SchemaError(f"hsnorm.truncation.{label}: expected {kind} integer")
    regime = discs.hs_regime()
    bound = hs_bound(discs) if regime else None
    rows = hs_truncated(discs, M, N)
    return {
        "truncation": {"M": M, "N": N},
        "regime": regime,
        "bound": None if bound is None else _scalar_json(bound),
        "rows": [
            {
                "total_insertions": row.total_insertions,
                "tuple_count": row.tuple_count,
                "partial_sum": _scalar_json(row.partial_sum),
            }
            for row in rows
        ],
    }


def _run_verify(config: dict) -> dict:
    names = config.get("suites")
    if names is not None:
        if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
            raise SchemaError("verify.suites: expected a non-empty list of suite names")
    seed = config.get("seed", 2026)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError("verify.seed: expected an integer")
    results = run_suites(names, seed=seed)
    return {
        "seed": seed,
        "suites": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
        "timing": {
            "suites": [
                {"name": r.name, "seconds": round(r.seconds, 6), "cases": r.cases}
                for r in results
            ]
        },
    }


# Each command once: its handler and the config keys it reads.  A command
# that reads "mode" computes from its config, so its --config is required;
# verify, which reads no mode, runs without one.
_COMMANDS = {
    "correlator": (_run_correlator, {"mode", "words"}),
    "gram": (_run_gram, {"mode", "states", "tolerance"}),
    "amplitude": (_run_amplitude, {"mode", "discs", "states"}),
    "hsnorm": (_run_hsnorm, {"mode", "discs", "truncation"}),
    "verify": (_run_verify, {"suites", "seed"}),
}


def run(command: str, config: dict, timing: bool = False) -> dict:
    """Execute one CLI command against an already-parsed config document.

    A command may time its own parts (verify: seconds and cases per suite);
    that ``timing`` entry stays in the document only when ``timing`` is set.
    """
    if command not in _COMMANDS:
        raise SchemaError(f"unknown command {command!r}")
    handler, keys = _COMMANDS[command]
    if not isinstance(config, dict):
        raise SchemaError("config document must be a JSON object")
    extra = set(config) - keys
    if extra:
        raise SchemaError(f"unknown config keys for {command}: {sorted(extra)}")
    if "mode" in keys:
        mode = config.get("mode", "exact")
        if mode not in _MODES:
            raise SchemaError(f"mode must be 'exact' or 'float', got {mode!r}")
        doc = {"command": command, "mode": mode, **handler(config, mode == "exact")}
    else:
        doc = {"command": command, **handler(config)}
    parts = doc.pop("timing", None)
    if timing and parts is not None:
        doc["timing"] = parts
    return doc


# ---------------------------------------------------------------- plumbing

def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key given twice (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"config repeats the key {key!r} in one object")
        obj[key] = value
    return obj


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, and integer literals beyond the interpreter's digit cap
        raise SchemaError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise SchemaError("config document must be a JSON object")
    return config


def _csv_cell(encoded) -> str:
    """Flatten a JSON-encoded real scalar (a rational, or a float pair) to
    one CSV token: the partial sums and the bound carry no radicals."""
    if isinstance(encoded, str):
        return encoded
    value = encoded[0]
    return value if isinstance(value, str) else repr(float(value))


def _render_csv(doc: dict) -> str:
    lines = ["total_insertions,tuple_count,partial_sum,bound"]
    bound = "" if doc["bound"] is None else _csv_cell(doc["bound"])
    for row in doc["rows"]:
        lines.append(
            f"{row['total_insertions']},{row['tuple_count']},"
            f"{_csv_cell(row['partial_sum'])},{bound}"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write output: {exc}") from None


def _emit_error(module: str, exc: Exception) -> None:
    error_doc = {"error": {"module": module, "type": type(exc).__name__, "message": str(exc)}}
    _emit(json.dumps(error_doc, sort_keys=True, indent=2) + "\n", None)


def _origin(exc: Exception) -> str:
    """The innermost freeboson module on the traceback of an unexpected error."""
    module = "cli"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("freeboson."):
            module = name.rpartition(".")[2]
        tb = tb.tb_next
    return module


def _usage_error(message: str):
    """argparse's error hook on every parser: a usage error raises
    SchemaError, reported as an error document, in place of usage text on
    stderr and exit 2."""
    raise SchemaError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="freeboson",
        description="free boson correlators, Gram matrices, and disc amplitudes",
    )
    parser.error = _usage_error
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.error = _usage_error
        p.add_argument("--config", required="mode" in keys, metavar="PATH")
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--timing", action="store_true")
        if "mode" in keys:
            p.add_argument("--mode", choices=_MODES)
        if name == "hsnorm":
            p.add_argument("--csv", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # stdout's reader has gone: write nothing more, and point the
        # descriptor at the null device so the final flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 3


def _main(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:
        # --help prints its text and exits 0; a usage error raises SchemaError
        return 0
    except SchemaError as exc:
        _emit_error(exc.module, exc)
        return 1

    started = time.perf_counter()
    try:
        config = _load_config(args.config)
        if getattr(args, "mode", None) is not None:
            config = dict(config)
            config["mode"] = args.mode
        doc = run(args.command, config, timing=args.timing)
        if args.command == "hsnorm" and getattr(args, "csv", False):
            text = _render_csv(doc)
        else:
            if args.timing:
                seconds = round(time.perf_counter() - started, 6)
                doc["timing"] = {"seconds": seconds, **doc.get("timing", {})}
            try:
                text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
            except ValueError:
                # JSON has no NaN or infinity: a float-mode value overflowed
                raise SchemaError("the result holds a float that is not finite") from None
        _emit(text, args.out)
    except EngineError as exc:
        _emit_error(exc.module, exc)
        return 1
    except OverflowError as exc:
        # a value beyond float range, like the non-finite result above
        error = SchemaError(str(exc))
        _emit_error(error.module, error)
        return 1
    except BrokenPipeError:
        raise
    except Exception as exc:  # the CLI boundary: no traceback escapes
        _emit_error(_origin(exc), exc)
        return 3

    if args.command == "verify" and not doc["passed"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
