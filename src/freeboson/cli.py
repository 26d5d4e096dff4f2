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
hands the handler ``exact`` and writes ``mode``.  ``_parse_args`` reads
the command line from the same table: each command takes --config, --out
and --timing, a command that reads a mode also --mode and requires
--config, and hsnorm also --csv.  It reads a line as argparse would, with
argparse's message for each usage error, and keeps argparse's import off
every call.

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

import json
import math
import os
import re
import sys
import time
from fractions import Fraction

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


def _option_specs(command) -> list:
    """(option strings, destination, metavar, required) of each option of
    ``command``, or of the top level for None, in the order that argparse
    lists them; a flag has no metavar.  A command that reads a mode takes
    --mode and requires --config."""
    specs = [(("-h", "--help"), "help", None, False)]
    if command is not None:
        reads_mode = "mode" in _COMMANDS[command][1]
        specs += [
            (("--config",), "config", "PATH", reads_mode),
            (("--out",), "out", "PATH", False),
            (("--timing",), "timing", None, False),
        ]
        if reads_mode:
            specs.append((("--mode",), "mode", "{" + ",".join(_MODES) + "}", False))
        if command == "hsnorm":
            specs.append((("--csv",), "csv", None, False))
    return specs


def _usage(command) -> str:
    """The help text of ``command``, or of the top level for None."""
    if command is None:
        return (
            f"usage: freeboson [-h] {{{','.join(_COMMANDS)}}} ...\n\n"
            "free boson correlators, Gram matrices, and disc amplitudes\n"
        )
    parts = []
    for strings, _, metavar, required in _option_specs(command):
        text = strings[0] if metavar is None else f"{strings[0]} {metavar}"
        parts.append(text if required else f"[{text}]")
    return f"usage: freeboson {command} {' '.join(parts)}\n"


def _classify(arg: str, options: dict):
    """How argparse reads one string before "--": None for an argument, else
    (the option string it names, None for an option unknown here; its
    explicit argument, None for none).  A long option may be abbreviated to
    a unique prefix and take "=value"; a short one takes the rest of the
    string."""
    if len(arg) < 2 or arg[0] != "-":
        return None
    if arg in options:
        return arg, None
    head, eq, tail = arg.partition("=")
    if eq and head in options:
        return head, tail
    if arg[1] == "-":
        matches = [(s, tail if eq else None) for s in options if s.startswith(head)]
    else:
        matches = [(s, arg[2:]) for s in options if s == arg[:2]]
    if len(matches) > 1:
        names = ", ".join(s for s, _ in matches)
        raise SchemaError(f"ambiguous option: {arg} could match {names}")
    if matches:
        return matches[0]
    # a negative number, or a string with a space, is an argument
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _take_options(args: list, command, values: dict, extras: list):
    """Read the options of ``command``, or of the top level for None, from
    ``args`` into ``values``, as argparse does.  The top level stops at its
    first argument, the command's name; a command collects its arguments,
    and the options unknown to it, in ``extras``.  Returns the index where
    reading stopped, or None once a help text has been printed."""
    specs = _option_specs(command)
    options = {s: spec for spec in specs for s in spec[0]}
    # every string after the first "--" is an argument
    split = args.index("--") if "--" in args else len(args)
    kinds = [_classify(arg, options) for arg in args[:split]] + [None] * (len(args) - split)
    i = 0
    while i < len(args):
        if kinds[i] is None and command is None:
            break
        if kinds[i] is None or kinds[i][0] is None:
            extras.append(args[i])
            i += 1
            continue
        option, explicit = kinds[i]
        i += 1
        strings, dest, metavar, _ = options[option]
        if option == "-h" and explicit:
            # the rest of "-h..." is read as more short flags, and -h is the only one
            explicit = explicit.lstrip("h") or None
        if metavar is None:
            if explicit is not None:
                raise SchemaError(
                    f"argument {'/'.join(strings)}: ignored explicit argument {explicit!r}"
                )
            value = True
        elif explicit is not None:
            value = explicit
        elif i < split and kinds[i] is None:
            value = args[i]
            i += 1
        else:
            raise SchemaError(f"argument {'/'.join(strings)}: expected one argument")
        if dest == "help":
            sys.stdout.write(_usage(command))
            return None
        if dest == "mode" and value not in _MODES:
            choices = ", ".join(map(repr, _MODES))
            raise SchemaError(f"argument --mode: invalid choice: {value!r} (choose from {choices})")
        values[dest] = value
    missing = [spec[0][0] for spec in specs if spec[3] and values[spec[1]] is None]
    if missing:
        raise SchemaError(f"the following arguments are required: {', '.join(missing)}")
    return i


def _parse_args(argv: list):
    """The command line as a dict of command, config, out, timing, mode and
    csv, or None once a help text has been printed.  It reads every line as
    argparse read it with one subcommand per entry of ``_COMMANDS``, and a
    usage error raises SchemaError with argparse's message."""
    values = {"command": None, "config": None, "out": None, "timing": False, "mode": None, "csv": False}
    extras = []
    start = _take_options(argv, None, values, extras)
    if start is None:
        return None
    rest = argv[start:]
    if rest in ([], ["--"]):
        raise SchemaError("the following arguments are required: command")
    command = values["command"] = rest[0]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise SchemaError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    if _take_options(rest[1:], command, values, extras) is None:
        return None
    if extras:
        raise SchemaError(f"unrecognized arguments: {' '.join(extras)}")
    return values


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
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SchemaError as exc:
        _emit_error(exc.module, exc)
        return 1
    if args is None:
        # --help printed its text
        return 0

    started = time.perf_counter()
    try:
        config = _load_config(args["config"])
        if args["mode"] is not None:
            config = dict(config)
            config["mode"] = args["mode"]
        doc = run(args["command"], config, timing=args["timing"])
        if args["csv"]:
            text = _render_csv(doc)
        else:
            if args["timing"]:
                seconds = round(time.perf_counter() - started, 6)
                doc["timing"] = {"seconds": seconds, **doc.get("timing", {})}
            try:
                text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
            except ValueError:
                # JSON has no NaN or infinity: a float-mode value overflowed
                raise SchemaError("the result holds a float that is not finite") from None
        _emit(text, args["out"])
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

    if args["command"] == "verify" and not doc["passed"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
