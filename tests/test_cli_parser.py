"""The command line parser against argparse, its reference
(``cli_reference.build_parser``): every line gets the same values, the same
usage error message, or the same help, as argparse gave it."""
import itertools
import random

import pytest

from cli_reference import outcome, reference_parse
from freeboson import cli
from freeboson.cli import _COMMANDS, main

# (plain spelling, "=" or abbreviated spelling) of each option of a command
_SPELLINGS = {
    "config": (["--config", "c.json"], ["--conf=c.json"]),
    "out": (["--out", "o.json"], ["--o", "o.json"]),
    "timing": (["--timing"], ["--tim"]),
    "mode": (["--mode", "float"], ["--mode=exact"]),
    "csv": (["--csv"], ["--cs"]),
}


def _options(command: str) -> list[str]:
    keys = _COMMANDS[command][1]
    names = ["config", "out", "timing"]
    names += ["mode"] if "mode" in keys else []
    names += ["csv"] if command == "hsnorm" else []
    return names


def _assert_same(lines) -> list:
    """Assert both parsers decide each line alike; return the decisions."""
    decided = []
    for argv in lines:
        expected = outcome(reference_parse, argv)
        assert outcome(cli._parse_args, argv) == expected, argv
        decided.append(expected)
    return decided


def test_every_command_with_its_options_in_every_order():
    lines = []
    for command in _COMMANDS:
        for order in itertools.permutations(_options(command)):
            for form in (0, 1):
                lines.append([command, *itertools.chain(*(_SPELLINGS[n][form] for n in order))])
    decided = _assert_same(lines)
    assert len(decided) == 2 * (6 + 3 * 24 + 120)
    assert all(kind == "ok" for kind, _ in decided)


@pytest.mark.parametrize("argv, expected", [
    ([], ("error", "the following arguments are required: command")),
    (["--"], ("error", "the following arguments are required: command")),
    (["grams"], ("error", "argument command: invalid choice: 'grams' (choose from "
                 "'correlator', 'gram', 'amplitude', 'hsnorm', 'verify')")),
    (["--", "verify"], ("error", "argument command: invalid choice: '--' (choose from "
                        "'correlator', 'gram', 'amplitude', 'hsnorm', 'verify')")),
    (["hsnorm", "--c", "c.json"], ("error", "ambiguous option: --c could match --config, --csv")),
    (["hsnorm", "--config", "c.json", "--c=x"],
     ("error", "ambiguous option: --c=x could match --config, --csv")),
    (["verify", "--c", "c.json"], ("ok", None)),
    (["gram", "--config", "c.json", "--mode", "fast"],
     ("error", "argument --mode: invalid choice: 'fast' (choose from 'exact', 'float')")),
    (["gram", "--config"], ("error", "argument --config: expected one argument")),
    (["gram", "--config", "--out", "o.json"], ("error", "argument --config: expected one argument")),
    (["gram", "--config", "--", "c.json"], ("error", "argument --config: expected one argument")),
    (["gram", "--config", "-x"], ("error", "argument --config: expected one argument")),
    (["gram", "--config", "-h"], ("error", "argument --config: expected one argument")),
    (["gram", "--config", "-5"], ("ok", None)),
    (["gram", "--config", "-.5"], ("ok", None)),
    (["gram", "--config", "- x"], ("ok", None)),
    (["gram", "--config", "-"], ("ok", None)),
    (["gram", "--config", ""], ("ok", None)),
    (["gram", "--config="], ("ok", None)),
    (["gram", "--config", "a", "--config", "b", "--mode", "float", "--mode", "exact"], ("ok", None)),
    (["verify", "--timing", "--timing", "--out", "a", "--out=b"], ("ok", None)),
    (["verify", "--timing=x"], ("error", "argument --timing: ignored explicit argument 'x'")),
    (["verify", "--timing="], ("error", "argument --timing: ignored explicit argument ''")),
    (["hsnorm", "--config", "c", "--cs=1"], ("error", "argument --csv: ignored explicit argument '1'")),
    (["verify", "-hx"], ("error", "argument -h/--help: ignored explicit argument 'x'")),
    (["verify", "-hhx"], ("error", "argument -h/--help: ignored explicit argument 'x'")),
    (["--help=x", "verify"], ("error", "argument -h/--help: ignored explicit argument 'x'")),
    (["verify", "--bogus"], ("error", "unrecognized arguments: --bogus")),
    (["verify", "--"], ("error", "unrecognized arguments: --")),
    (["verify", "--", "--timing"], ("error", "unrecognized arguments: -- --timing")),
    (["verify", "--timing", "--", "x"], ("error", "unrecognized arguments: -- x")),
    (["verify", "-5", "x y", "-1."], ("error", "unrecognized arguments: -5 x y -1.")),
    (["--timing", "verify", "--bogus"], ("error", "unrecognized arguments: --timing --bogus")),
    (["--config", "c.json", "hsnorm"], ("error", "argument command: invalid choice: 'c.json' "
                                        "(choose from 'correlator', 'gram', 'amplitude', "
                                        "'hsnorm', 'verify')")),
    (["-x", "correlator"], ("error", "the following arguments are required: --config")),
    (["correlator", "--bogus", "--mode", "fast", "--config", "c"],
     ("error", "argument --mode: invalid choice: 'fast' (choose from 'exact', 'float')")),
    (["-hh"], ("help", "freeboson")),
    (["--he", "verify"], ("help", "freeboson")),
    (["-x", "--help"], ("help", "freeboson")),
    (["hsnorm", "--h"], ("help", "freeboson hsnorm")),
    (["correlator", "--mode", "fast", "--help"],
     ("error", "argument --mode: invalid choice: 'fast' (choose from 'exact', 'float')")),
    (["correlator", "--help", "--mode", "fast"], ("help", "freeboson correlator")),
    (["correlator", "--help", "--c"], ("help", "freeboson correlator")),
    (["hsnorm", "--help", "--c"], ("error", "ambiguous option: --c could match --config, --csv")),
])
def test_named_command_lines(argv, expected):
    decided, = _assert_same([argv])
    if expected[1] is None:
        assert decided[0] == expected[0]
    else:
        assert decided == expected


def test_help_at_each_position():
    lines = []
    for command in _COMMANDS:
        line = [command, *itertools.chain(*(_SPELLINGS[n][0] for n in _options(command)))]
        for flag in ("-h", "--help", "--he"):
            lines += [line[:i] + [flag] + line[i:] for i in range(len(line) + 1)]
    decided = _assert_same(lines)
    assert {kind for kind, _ in decided} == {"help", "error"}


# Strings a random line is drawn from: each kind of option string, value
# and argument that the parsers read differently.
_VOCABULARY = [
    *_COMMANDS, "grams", "exact", "float", "fast", "c.json", "", "-", "--", "---",
    "--config", "--conf", "--c", "--co", "--cs", "--csv", "--out", "--o", "--timing", "--t",
    "--mode", "--m", "--mo", "-h", "--help", "--h", "-hh", "-hx", "-h=", "-h=x", "-hh=x",
    "--help=x", "--=x", "--=", "--bogus", "--x=y", "-x", "-5", "-.5", "-1.", "-5\n", "- x",
    "x y", "--config=c.json", "--config=", "--mode=float", "--mode=fast", "--m=exact",
    "--timing=x", "--timing=", "--csv=1", "--cs=", "--out=o", "--c=x", "--o=--x",
    "-h=h", "-hxh", "-hhh", "-hh=h", "-h-", "--help=", "--he=x", "--mode=", "--5", "-1e3",
]


def test_random_command_lines():
    rng = random.Random(32)
    lines = []
    for _ in range(3000):
        argv = [rng.choice(_VOCABULARY) for _ in range(rng.randint(0, 7))]
        if argv and rng.random() < 0.6:
            argv[0] = rng.choice(list(_COMMANDS))
        lines.append(argv)
    decided = _assert_same(lines)
    assert {kind for kind, _ in decided} == {"ok", "help", "error"}


def test_an_explicit_double_dash_is_the_value(tmp_path, capsys, monkeypatch):
    # argparse dropped a "--" given with "=" and stored an empty list, so
    # "--config=--" ended in a TypeError (exit 3); here it names a file
    assert reference_parse(["verify", "--config=--"])["config"] == []
    values = cli._parse_args(["verify", "--config=--", "--out=--"])
    assert (values["config"], values["out"]) == ("--", "--")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "--").write_text('{"suites": ["scaling"]}')
    assert main(["verify", "--config=--", "--out=--"]) == 0
    assert capsys.readouterr().out == ""
    assert '"passed": true' in (tmp_path / "--").read_text()
    assert outcome(cli._parse_args, ["gram", "--config", "c", "--mode=--"]) == (
        "error", "argument --mode: invalid choice: '--' (choose from 'exact', 'float')")
