"""The argparse parser the command line was read with before
``cli._parse_args``, kept as its reference: one subcommand per entry of
``cli._COMMANDS``, with --mode and a required --config for a command that
reads a mode, and an error hook that raises SchemaError.

``outcome(parse, argv)`` runs either parser on one command line and returns
what it decided, in a form the two share.
"""
import argparse
import contextlib
import functools
import io

from freeboson.cli import _COMMANDS, _MODES
from freeboson.errors import SchemaError

FIELDS = ("command", "config", "out", "timing", "mode", "csv")


def _usage_error(message: str):
    raise SchemaError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once: parsing leaves it unchanged."""
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


def reference_parse(argv: list) -> dict | None:
    """``cli._parse_args`` by argparse: the values, or None after help."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        return None
    defaults = {"timing": False, "csv": False}
    return {field: getattr(args, field, defaults.get(field)) for field in FIELDS}


def outcome(parse, argv: list) -> tuple:
    """("help", the program named by the usage line), ("error", message) or
    ("ok", values) for ``parse`` on ``argv``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            values = parse(list(argv))
    except SchemaError as exc:
        return "error", str(exc)
    if values is None:
        text = out.getvalue()
        assert text.startswith("usage: freeboson"), text
        # the program is every word before the first option or choice list
        words = text.split()[1:]
        prog = " ".join(w for w in words[: next(i for i, w in enumerate(words) if w[0] in "[{-")])
        return "help", prog
    assert out.getvalue() == ""
    return "ok", values
