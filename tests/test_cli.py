"""Command line round trips: schemas, documents, determinism, exit codes."""
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import freeboson.cli as cli
from freeboson.algebra import WickWord
from freeboson.amplitude import MAX_DISCS, Disc, DiscConfiguration, hs_truncated
from freeboson.cli import main, run
from freeboson.correlator import expect_combo
from freeboson.errors import EngineError, ResourceError, SchemaError
from freeboson.hilbert import psd_check
from freeboson.scalars import rational
from freeboson.verify import SuiteResult

FOUR_POINT = [[{"m": 1, "re": 0}], [{"m": 1, "re": 1}],
              [{"m": 1, "re": 2}], [{"m": 1, "re": 3}]]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_correlator_golden():
    doc = run("correlator", {"mode": "exact", "words": [FOUR_POINT]})
    assert doc["expectations"] == ["169/576"]
    assert doc["pairings"] == 3
    assert doc["mode"] == "exact"


def test_run_correlator_wick_group():
    word = [[{"m": 1, "re": "1/4"}, {"m": 1, "re": "3/4"}]]
    doc = run("correlator", {"words": [word]})
    assert doc["expectations"] == ["0"]  # lone group


def test_run_correlator_float_mode():
    doc = run("correlator", {"mode": "float", "words": [FOUR_POINT]})
    (value,) = doc["expectations"]
    assert value[0] == pytest.approx(169 / 576)
    assert value[1] == pytest.approx(0.0)


def test_rational_strings_rejected_in_float_mode():
    word = [[{"m": 1, "re": "1/4"}]]
    with pytest.raises(SchemaError):
        run("correlator", {"mode": "float", "words": [word]})


def test_float_literals_rejected_in_exact_mode():
    word = [[{"m": 1, "re": 0.25}]]
    with pytest.raises(SchemaError):
        run("correlator", {"words": [word]})


def test_unknown_keys_rejected():
    with pytest.raises(SchemaError):
        run("correlator", {"words": [FOUR_POINT], "extra": 1})
    with pytest.raises(SchemaError):
        run("bogus", {})


_DISCS = [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}]
_SUITE_NAMES = ("d-identity, theta-involution, conjugation, scaling, wick-plain, "
                "commutators, dictionary, oracle-agreement")


@pytest.mark.parametrize("command,config,error,message", [
    ("bogus", {}, "SchemaError", "unknown command 'bogus'"),
    ("correlator", [FOUR_POINT], "SchemaError", "config document must be a JSON object"),
    ("verify", "seed", "SchemaError", "config document must be a JSON object"),
    ("correlator", {"words": [FOUR_POINT], "extra": 1}, "SchemaError",
     "unknown config keys for correlator: ['extra']"),
    ("gram", {"extra": 1, "tol": 1}, "SchemaError", "unknown config keys for gram: ['extra', 'tol']"),
    ("amplitude", {"discs": _DISCS, "truncation": {}}, "SchemaError",
     "unknown config keys for amplitude: ['truncation']"),
    ("hsnorm", {"states": []}, "SchemaError", "unknown config keys for hsnorm: ['states']"),
    ("verify", {"words": []}, "SchemaError", "unknown config keys for verify: ['words']"),
    ("verify", {"mode": "exact"}, "SchemaError", "unknown config keys for verify: ['mode']"),
    ("correlator", {"mode": "fast", "words": [FOUR_POINT]}, "SchemaError",
     "mode must be 'exact' or 'float', got 'fast'"),
    # the mode is read before any other key
    ("gram", {"mode": "Exact"}, "SchemaError", "mode must be 'exact' or 'float', got 'Exact'"),
    ("amplitude", {"mode": None}, "SchemaError", "mode must be 'exact' or 'float', got None"),
    ("hsnorm", {"mode": 1, "discs": _DISCS}, "SchemaError", "mode must be 'exact' or 'float', got 1"),
    ("correlator", {}, "SchemaError", "correlator config requires the key 'words'"),
    ("gram", {"mode": "float"}, "SchemaError", "gram config requires the key 'states'"),
    ("amplitude", {}, "SchemaError", "amplitude config requires the key 'discs'"),
    ("amplitude", {"discs": _DISCS}, "SchemaError", "amplitude config requires the key 'states'"),
    ("hsnorm", {}, "SchemaError", "hsnorm config requires the key 'discs'"),
    ("hsnorm", {"discs": _DISCS}, "SchemaError", "hsnorm config requires the key 'truncation'"),
    ("correlator", {"words": FOUR_POINT[0][0]}, "SchemaError", "correlator.words: expected a non-empty list"),
    ("correlator", {"words": []}, "SchemaError", "correlator.words: expected a non-empty list"),
    ("gram", {"states": "x"}, "SchemaError", "gram.states: expected a non-empty list"),
    ("gram", {"states": []}, "SchemaError", "gram.states: expected a non-empty list"),
    ("amplitude", {"discs": _DISCS, "states": 3}, "SchemaError",
     "amplitude.states: expected a non-empty list"),
    ("amplitude", {"discs": _DISCS, "states": []}, "SchemaError",
     "amplitude.states: expected a non-empty list"),
    ("verify", {"suites": []}, "SchemaError", "verify.suites: expected a non-empty list of suite names"),
    ("verify", {"suites": "d-identity"}, "SchemaError",
     "verify.suites: expected a non-empty list of suite names"),
    ("verify", {"suites": ["d-identity", 1]}, "SchemaError",
     "verify.suites: expected a non-empty list of suite names"),
    ("verify", {"suites": ["nope"]}, "DomainError", f"unknown suite 'nope'; available: {_SUITE_NAMES}"),
    ("verify", {"seed": "1"}, "SchemaError", "verify.seed: expected an integer"),
    ("verify", {"seed": True}, "SchemaError", "verify.seed: expected an integer"),
    ("verify", {"seed": 1.5}, "SchemaError", "verify.seed: expected an integer"),
    # every suite name is checked before any suite runs
    ("verify", {"suites": ["dictionary", "conjugation", "nope"]}, "DomainError",
     f"unknown suite 'nope'; available: {_SUITE_NAMES}"),
    # the per-field schema of words, states, discs and truncations
    ("correlator", {"words": [[[{"m": 1, "re": True}]]]}, "SchemaError",
     "words[0][0][0].re: expected a number, got a boolean"),
    ("correlator", {"mode": "float", "words": [[[{"m": 1, "im": False}]]]}, "SchemaError",
     "words[0][0][0].im: expected a number, got a boolean"),
    ("correlator", {"words": [[[{"m": 1, "re": "x"}]]]}, "SchemaError",
     "words[0][0][0].re: cannot parse 'x' as a rational"),
    ("gram", {"states": [[[{"m": 1, "im": "1/0"}]]]}, "SchemaError",
     "states[0][0][0].im: cannot parse '1/0' as a rational"),
    ("correlator", {"words": [[[1]]]}, "SchemaError", "words[0][0][0]: expected an insertion object"),
    ("correlator", {"words": [[[{"m": 1, "z": 0}]]]}, "SchemaError", "words[0][0][0]: unknown keys ['z']"),
    ("correlator", {"words": [[[{"m": 0}]]]}, "SchemaError",
     "words[0][0][0].m: expected a positive integer order"),
    ("correlator", {"words": [[[{"m": True}]]]}, "SchemaError",
     "words[0][0][0].m: expected a positive integer order"),
    ("gram", {"states": [[[{"re": 0}]]]}, "SchemaError",
     "states[0][0][0].m: expected a positive integer order"),
    ("correlator", {"words": [FOUR_POINT, []]}, "SchemaError",
     "words[1]: expected a non-empty list of groups"),
    ("gram", {"states": ["x"]}, "SchemaError", "states[0]: expected a non-empty list of groups"),
    ("correlator", {"words": [[[]]]}, "SchemaError", "words[0][0]: expected a non-empty list of insertions"),
    ("gram", {"states": [[{"m": 1}]]}, "SchemaError",
     "states[0][0]: expected a non-empty list of insertions"),
    ("amplitude", {"discs": {}, "states": [[{}, {}]]}, "SchemaError", "amplitude.discs: expected a list"),
    ("hsnorm", {"discs": "x", "truncation": {"M": 1, "N": 2}}, "SchemaError",
     "hsnorm.discs: expected a list"),
    ("amplitude", {"discs": [1, _DISCS[1]], "states": [[{}, {}]]}, "SchemaError",
     "amplitude.discs[0]: expected an object"),
    ("hsnorm", {"discs": [_DISCS[0], {"a_re": 10, "r": 1}], "truncation": {"M": 1, "N": 2}},
     "SchemaError", "hsnorm.discs[1]: unknown keys ['r']"),
    ("amplitude", {"discs": _DISCS, "states": [[[], {}]]}, "SchemaError",
     "amplitude.states[0][0]: expected an occupation map"),
    ("amplitude", {"discs": _DISCS, "states": [[{}, {"01": 1}]]}, "SchemaError",
     "amplitude.states[0][1]: mode keys must be decimal integers, got '01'"),
    ("amplitude", {"discs": _DISCS, "states": [[{"x": 1}, {}]]}, "SchemaError",
     "amplitude.states[0][0]: mode keys must be decimal integers, got 'x'"),
    ("amplitude", {"discs": _DISCS, "states": [[{"0": 1}, {}]]}, "SchemaError",
     "amplitude.states[0][0]: modes are positive, got 0"),
    ("amplitude", {"discs": _DISCS, "states": [[{"-1": 1}, {}]]}, "SchemaError",
     "amplitude.states[0][0]: modes are positive, got -1"),
    ("amplitude", {"discs": _DISCS, "states": [[{"1": 0}, {}]]}, "SchemaError",
     "amplitude.states[0][0][1]: counts are positive integers"),
    ("amplitude", {"discs": _DISCS, "states": [[{"1": True}, {}]]}, "SchemaError",
     "amplitude.states[0][0][1]: counts are positive integers"),
    ("amplitude", {"discs": _DISCS, "states": [[{"1": 1.0}, {}]]}, "SchemaError",
     "amplitude.states[0][0][1]: counts are positive integers"),
    ("amplitude", {"discs": _DISCS, "states": [[{}]]}, "SchemaError",
     "amplitude.states[0]: expected one occupation map per disc (2 discs)"),
    ("amplitude", {"discs": _DISCS, "states": [{}]}, "SchemaError",
     "amplitude.states[0]: expected one occupation map per disc (2 discs)"),
    ("hsnorm", {"discs": _DISCS, "truncation": {"M": 1}}, "SchemaError",
     "hsnorm.truncation: expected an object with keys M and N"),
    ("hsnorm", {"discs": _DISCS, "truncation": {"M": 1, "N": 2, "T": 0}}, "SchemaError",
     "hsnorm.truncation: expected an object with keys M and N"),
    ("hsnorm", {"discs": _DISCS, "truncation": [1, 2]}, "SchemaError",
     "hsnorm.truncation: expected an object with keys M and N"),
    ("hsnorm", {"discs": _DISCS, "truncation": {"M": -1, "N": 2}}, "SchemaError",
     "hsnorm.truncation.M: expected a positive integer"),
    ("hsnorm", {"discs": _DISCS, "truncation": {"M": 1, "N": True}}, "SchemaError",
     "hsnorm.truncation.N: expected a non-negative integer"),
    ("hsnorm", {"discs": _DISCS, "truncation": {"M": 1, "N": 2.0}}, "SchemaError",
     "hsnorm.truncation.N: expected a non-negative integer"),
    # the sweep needs a mode: M = 0 is refused here, not by the amplitude module
    ("hsnorm", {"discs": _DISCS, "truncation": {"M": 0, "N": 2}}, "SchemaError",
     "hsnorm.truncation.M: expected a positive integer"),
])
def test_run_error_messages(command, config, error, message):
    with pytest.raises(EngineError) as caught:
        run(command, config)
    module = "verify" if error == "DomainError" else "cli"
    assert (type(caught.value).__name__, caught.value.module, str(caught.value)) == (
        error, module, message
    )


def test_run_gram():
    states = [
        [[{"m": 1, "re": "1/3"}]],
        [[{"m": 2, "re": "-1/4", "im": "1/4"}]],
    ]
    doc = run("gram", {"states": states})
    assert doc["size"] == 2
    assert doc["psd"] is True
    assert doc["hermiticity_defect"] == 0.0
    assert doc["matrix"][0][0] == "81/128"


def test_run_gram_reports_the_witness_of_a_failed_verdict(monkeypatch):
    # a matrix with eigenvalues 3 and -1 stands in for the Gram matrix, so
    # the verdict does not hang on the rounding of a near-zero eigenvalue
    matrix = ((rational(1), rational(2)), (rational(2), rational(1)))
    monkeypatch.setattr(cli, "gram", lambda states, tol: psd_check(matrix, tol))
    doc = run("gram", {"states": [[[{"m": 1, "re": "1/3"}]]]})
    assert doc["matrix"] == [["1", "2"], ["2", "1"]]
    assert doc["psd"] is False
    assert doc["min_eigenvalue"] == pytest.approx(-1.0)
    half = math.sqrt(0.5)
    witness = doc["witness"]
    sign = -1 if witness[0][0] > 0 else 1
    assert [[sign * re, sign * im] for re, im in witness] == [
        [pytest.approx(-half), pytest.approx(0.0, abs=1e-12)],
        [pytest.approx(half), pytest.approx(0.0, abs=1e-12)],
    ]


@pytest.mark.parametrize(
    "tolerance",
    [float("inf"), float("nan"), 10 ** 400, 0, -1e-3, True],
    ids=["inf", "nan", "huge-int", "zero", "negative", "bool"],
)
def test_gram_tolerance_must_be_positive_and_finite(tolerance):
    states = [[[{"m": 1, "re": "1/3"}]]]
    with pytest.raises(SchemaError):
        run("gram", {"states": states, "tolerance": tolerance})


def test_main_gram_rejects_overflowing_tolerance(tmp_path, capsys):
    # 1e400 parses as inf; echoing it back would print the non-JSON "Infinity"
    path = tmp_path / "g.json"
    path.write_text('{"states": [[[{"m": 1, "re": "1/3"}]]], "tolerance": 1e400}')
    assert main(["gram", "--config", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"


def _strict_json(text):
    """Parse text as JSON proper: NaN and Infinity are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


FOUR_POINT_AT = '{{"mode": "{mode}", "words": [[[{{"m": 1, "re": {re}}}]]]}}'


@pytest.mark.parametrize("text", [
    # Fraction would build 10**1000000 for the exponent
    FOUR_POINT_AT.format(mode="exact", re='"1e1000000"'),
    FOUR_POINT_AT.format(mode="exact", re='"3E-2"'),
    # json refuses integer literals beyond the interpreter's digit cap
    FOUR_POINT_AT.format(mode="exact", re="1" + "0" * 5000),
    FOUR_POINT_AT.format(mode="float", re="NaN"),
    FOUR_POINT_AT.format(mode="float", re="-Infinity"),
    FOUR_POINT_AT.format(mode="float", re="1e999"),
    FOUR_POINT_AT.format(mode="float", re="1" + "0" * 400),
    # the order-23 pair kernel overflows to NaN this close
    '{"mode": "float", "words": [[[{"m": 23, "re": 0.5}], [{"m": 23, "re": 0.5000001}]]]}',
], ids=["exponent", "exponent-upper", "digits", "nan", "infinity", "1e999", "int-400", "overflow"])
def test_main_bad_numbers_are_schema_errors_fast(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["correlator", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    out = _strict_json(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("command,config,message", [
    # the float eigen diagnostics of an exact matrix overflow
    ("gram", {"states": [[[{"m": 200, "re": "1/2"}]]]}, None),
    # (m1 + m2 - 1)!/(2 (z1 - z2)^(m1 + m2)) is about 5.6e506
    ("correlator", {"mode": "float", "words": [[[{"m": 90, "re": 0}], [{"m": 90, "re": 0.1}]]]},
     "the kernel at 0j, (0.1+0j) is beyond float range"),
    # (z1 - z2)^2 underflows to 0, and the kernel, about 5e339, is beyond float range
    ("correlator", {"mode": "float", "words": [[[{"m": 1, "re": 0}], [{"m": 1, "re": 1e-170}]]]}, None),
    # (z1 - z2)^2 overflows: the message of the underflow, not Python's
    ("correlator", {"mode": "float", "words": [[[{"m": 1, "re": 0}], [{"m": 1, "re": 1e200}]]]},
     "the kernel at 0j, (1e+200+0j) is beyond float range"),
    ("hsnorm", {"mode": "float", "discs": [{"a_re": 0, "q_re": 1}, {"a_re": 1e300, "q_re": 1}],
                "truncation": {"M": 1, "N": 2}},
     "the kernel at 0j, (1e+300+0j) is beyond float range"),
    ("gram", {"mode": "float", "states": [[[{"m": 90, "re": 0.5}]]]}, None),
], ids=["exact-gram-200", "factorial", "underflow", "power", "hsnorm-power", "float-gram-90"])
def test_main_values_beyond_float_range_are_schema_errors_fast(tmp_path, capsys, command, config, message):
    path = _write(tmp_path, "c.json", config)
    start = time.perf_counter()
    assert main([command, "--config", path]) == 1
    assert time.perf_counter() - start < 1.0
    out = _strict_json(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"
    if message is not None:
        assert out["error"]["message"] == message


def test_exact_gram_beyond_float_range_is_an_error_of_the_package(tmp_path, capsys):
    # the exact entries, near 2^1046 and 2^1040, exist; their float
    # diagnostics in psd_check do not
    states = [[[{"m": 100, "re": "1/50"}]], [[{"m": 100, "re": "-1/50"}]]]
    assert main(["gram", "--config", _write(tmp_path, "c.json", {"states": states})]) == 1
    error = _strict_json(capsys.readouterr().out)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"] == "an entry of the matrix is beyond float range"


def test_non_finite_float_result_is_an_error_of_the_package(tmp_path, capsys):
    # every kernel of [60, 0][60, 1][60, 10][60, 11] is finite, but the
    # product of the two near 2.8e196 overflows inside the hafnian to NaN
    word = [[{"m": 60, "re": x}] for x in (0, 1, 10, 11)]
    config = _write(tmp_path, "c.json", {"mode": "float", "words": [word]})
    assert main(["correlator", "--config", config]) == 1
    error = _strict_json(capsys.readouterr().out)["error"]
    assert (error["type"], error["module"]) == ("SchemaError", "cli")
    assert error["message"] == "the result holds a float that is not finite"


def _two_point(m1, m2, z):
    """The float correlator config of [m1, 0][m2, z]."""
    return {"mode": "float", "words": [[[{"m": m1, "re": 0}], [{"m": m2, "re": z}]]]}


def _two_discs(M):
    """The float hsnorm config of discs (0, q = 1) and (10, q = 1) at N = 2."""
    discs = [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}]
    return {"mode": "float", "discs": discs, "truncation": {"M": M, "N": 2}}


def test_float_kernels_with_one_factor_beyond_float_range(tmp_path, capsys):
    # (n - 1)!/2 alone at n = 180, or 30^251, is beyond float range, and the
    # kernels, 7.3256e60 and 2.8257e121, are the exact kernels rounded once
    for m1, m2 in ((90, 90), (1, 250)):
        exact = complex(expect_combo(WickWord.plain((m1, 0), (m2, 30))))
        assert complex(*run("correlator", _two_point(m1, m2, 30))["expectations"][0]) == exact
    # 120!/(2 * 0.1^121) passes float range in the quotient: main's error
    # document holds the kernel message, not the one for a non-finite result
    assert main(["correlator", "--config", _write(tmp_path, "c.json", _two_point(1, 120, 0.1))]) == 1
    error = _strict_json(capsys.readouterr().out)["error"]
    assert error["type"] == "SchemaError"
    assert error["message"] == "the kernel at 0j, (0.1+0j) is beyond float range"


def _rounded(exact):
    """complex(exact) when it rounds to a finite nonzero float, else None."""
    try:
        value = complex(exact)
    except OverflowError:
        return None
    return value if value and math.isfinite(abs(value)) else None


def _assert_float_document_holds(call, exact, read):
    """A float call holds the exact value within 1e-12 relative when that
    value fits in a float, and raises the kernel message otherwise."""
    value = _rounded(exact)
    if value is None:
        with pytest.raises(OverflowError) as info:
            call()
        assert str(info.value).endswith("is beyond float range")
    else:
        got = complex(*read(call()))
        assert abs(got - value) <= 1e-12 * abs(value)


def test_float_range_gate():
    orders = (1, 50, 86, 90, 120, 250)
    for m1, m2, z in itertools.product(orders, orders, (0.1, 1.0, 10.0, 30.0)):
        exact = expect_combo(WickWord.plain((m1, 0), (m2, rational(Fraction(z)))))
        _assert_float_document_holds(
            lambda: run("correlator", _two_point(m1, m2, z)), exact, lambda doc: doc["expectations"][0]
        )
    for M in (85, 86, 120):
        config = DiscConfiguration((Disc(rational(0), rational(1)), Disc(rational(10), rational(1))))
        exact = hs_truncated(config, M, 2)[2].partial_sum
        _assert_float_document_holds(
            lambda: run("hsnorm", _two_discs(M)), exact, lambda doc: doc["rows"][2]["partial_sum"]
        )


def test_main_gram_origin_multigroup_state(tmp_path, capsys):
    state = [[{"m": 1, "re": 0}], [{"m": 1, "re": "1/2"}]]
    config = _write(tmp_path, "g.json", {"states": [state, [[{"m": 2, "re": "1/3"}]]]})
    assert main(["gram", "--config", config]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"][0][0] == "169/36"
    assert out["psd"] is True


def test_run_amplitude():
    config = {
        "discs": [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}],
        "states": [[{"1": 1}, {"1": 1}], [{"1": 1}, {"2": 1}], [{"1": 1}, {}]],
    }
    doc = run("amplitude", config)
    assert doc["entries"][0] == "1/100"
    assert doc["entries"][1] == {"radicals": {"2": ["-1/1000", "0"]}}
    assert doc["entries"][2] == "0"


_TWO_DISCS = '[{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}]'


@pytest.mark.parametrize("text", [
    # two spellings of mode 1: json keeps both keys, int() merged them
    '{"discs": %s, "states": [[{"1": 1, "01": 1}, {"1": 2}]]}' % _TWO_DISCS,
    '{"discs": %s, "states": [[{"1_0": 1}, {"10": 1}]]}' % _TWO_DISCS,
    '{"discs": %s, "states": [[{" 1": 1}, {"1": 1}]]}' % _TWO_DISCS,
    '{"discs": %s, "states": [[{"+1": 1}, {"1": 1}]]}' % _TWO_DISCS,
    # one key twice: json would keep the last silently
    '{"discs": %s, "states": [[{"1": 1, "1": 1}, {"1": 2}]]}' % _TWO_DISCS,
    '{"discs": %s, "states": [], "states": [[{"1": 1}, {"1": 1}]]}' % _TWO_DISCS,
], ids=["leading-zero", "underscore", "space", "plus", "repeated-mode", "repeated-key"])
def test_main_mode_keys_have_one_spelling(tmp_path, capsys, text):
    path = tmp_path / "a.json"
    path.write_text(text)
    assert main(["amplitude", "--config", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"


def test_main_hsnorm_tuple_guard_is_fixed(tmp_path, capsys):
    # a config cannot lift the guard: the key is unknown
    discs = [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}]
    config = _write(tmp_path, "h.json", {
        "discs": discs, "truncation": {"M": 40, "N": 4}, "max_tuples": 10 ** 12,
    })
    assert main(["hsnorm", "--config", config]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"


def test_run_hsnorm_in_regime():
    config = {
        "discs": [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}],
        "truncation": {"M": 1, "N": 2},
    }
    doc = run("hsnorm", config)
    assert doc["regime"] is True
    assert doc["bound"] == "23/22"
    sums = [Fraction(row["partial_sum"]) for row in doc["rows"]]
    assert sums == sorted(sums)
    assert all(s <= Fraction(23, 22) for s in sums)


def test_run_hsnorm_out_of_regime():
    config = {
        "discs": [{"a_re": 0, "q_re": 1}, {"a_re": 4, "a_im": 4, "q_re": 1}],
        "truncation": {"M": 1, "N": 2},
    }
    doc = run("hsnorm", config)
    assert doc["regime"] is False
    assert doc["bound"] is None


def test_run_verify_all_pass():
    doc = run("verify", {"suites": ["d-identity", "commutators"]})
    assert doc["passed"] is True
    assert [s["name"] for s in doc["suites"]] == ["d-identity", "commutators"]


def test_verify_refuses_an_empty_suite_list():
    # an empty list would run nothing and report a pass
    with pytest.raises(SchemaError):
        run("verify", {"suites": []})


def test_main_writes_json(tmp_path, capsys):
    config = _write(tmp_path, "c.json", {"words": [FOUR_POINT]})
    assert main(["correlator", "--config", config]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["expectations"] == ["169/576"]


def test_main_out_file_and_determinism(tmp_path):
    config = _write(tmp_path, "c.json", {"words": [FOUR_POINT]})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["correlator", "--config", config, "--out", str(a)]) == 0
    assert main(["correlator", "--config", config, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_out_to_missing_directory(tmp_path, capsys):
    config = _write(tmp_path, "c.json", {"words": [FOUR_POINT]})
    target = tmp_path / "absent" / "out.json"
    assert main(["correlator", "--config", config, "--out", str(target)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"
    assert out["error"]["module"] == "cli"
    assert not target.exists()


def test_main_mode_flag_overrides(tmp_path, capsys):
    config = _write(tmp_path, "c.json", {"mode": "exact", "words": [FOUR_POINT]})
    assert main(["correlator", "--config", config, "--mode", "float"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "float"


def test_main_csv(tmp_path, capsys):
    config = _write(tmp_path, "h.json", {
        "discs": [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}],
        "truncation": {"M": 1, "N": 2},
    })
    assert main(["hsnorm", "--config", config, "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "total_insertions,tuple_count,partial_sum,bound"
    assert lines[1] == "0,1,1,23/22"
    assert lines[3].startswith("2,6,")
    assert lines[3].endswith(",23/22")


def test_main_csv_float_mode(tmp_path, capsys):
    config = _write(tmp_path, "h.json", {
        "mode": "float",
        "discs": [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}],
        "truncation": {"M": 1, "N": 2},
    })
    assert main(["hsnorm", "--config", config, "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "total_insertions,tuple_count,partial_sum,bound"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [["0", "1"], ["1", "3"], ["2", "6"]]
    assert rows[0][2] == "1.0"
    assert all(row[3] == repr(23 / 22) for row in rows)
    assert abs(float(rows[2][2]) - 1.0001) < 1e-12


def test_main_timing_flag(tmp_path, capsys):
    config = _write(tmp_path, "c.json", {"words": [FOUR_POINT]})
    assert main(["correlator", "--config", config, "--timing"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "timing" in out and out["timing"]["seconds"] >= 0


def test_main_domain_error_provenance(tmp_path, capsys):
    # coinciding points: the pole is reported by the correlator module
    word = [[{"m": 1, "re": 1}], [{"m": 2, "re": 1}]]
    config = _write(tmp_path, "c.json", {"words": [word]})
    assert main(["correlator", "--config", config]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["module"] == "correlator"
    assert out["error"]["type"] == "PoleError"


def test_main_schema_error(tmp_path, capsys):
    config = _write(tmp_path, "c.json", {"wordz": []})
    assert main(["correlator", "--config", config]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["module"] == "cli"


def test_main_missing_config_file(tmp_path, capsys):
    assert main(["correlator", "--config", str(tmp_path / "absent.json")]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"


def test_main_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["correlator", "--config", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"


def test_main_config_file_holding_an_array(tmp_path, capsys):
    path = _write(tmp_path, "array.json", [FOUR_POINT])
    assert main(["correlator", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "SchemaError"
    assert out["error"]["message"] == "config document must be a JSON object"


def test_main_usage_errors_exit_one(capsys):
    # one error document on stdout, no usage text on stderr
    for argv, message in (
        ([], "the following arguments are required: command"),
        (["correlator"], "the following arguments are required: --config"),
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        (["gram", "--config", "c.json", "--mode", "fast"], "argument --mode: invalid choice"),
        (["grams"], "argument command: invalid choice"),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert (error["module"], error["type"]) == ("cli", "SchemaError")
        assert error["message"].startswith(message), argv


def test_usage_errors_leave_later_calls_unchanged(tmp_path, capsys):
    config = _write(tmp_path, "c.json", {"words": [FOUR_POINT]})
    args = ["correlator", "--config", config, "--mode", "float", "--timing"]
    assert main(args[:3]) == 0
    first = capsys.readouterr().out
    # a usage error between two good calls: bad choice, unknown flag, no command
    assert main(["correlator", "--config", config, "--mode", "fast"]) == 1
    assert main(["gram", "--bogus"]) == 1
    assert main(args) == 0
    assert main([]) == 1
    capsys.readouterr()
    assert main(args[:3]) == 0
    assert capsys.readouterr().out == first


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["hsnorm", "--help"]) == 0
    captured = capsys.readouterr()
    assert "usage: freeboson" in captured.out and captured.err == ""


def test_main_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert len(out["suites"]) == 8


def test_main_verify_timing_per_suite(tmp_path, capsys):
    config = _write(tmp_path, "v.json", {"suites": ["d-identity", "commutators", "wick-plain"]})
    assert main(["verify", "--config", config]) == 0
    plain = capsys.readouterr().out
    assert "timing" not in json.loads(plain)
    assert main(["verify", "--config", config]) == 0
    assert capsys.readouterr().out == plain  # the default output is deterministic
    assert main(["verify", "--config", config, "--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    timing = timed.pop("timing")
    assert timed == json.loads(plain)  # --timing adds the timing key only
    assert timing["seconds"] >= 0
    suites = timing["suites"]
    assert [s["name"] for s in suites] == ["d-identity", "commutators", "wick-plain"]
    assert [s["cases"] for s in suites] == [288, 252, 12]
    assert all(s["seconds"] >= 0 for s in suites)
    assert "timing" not in run("verify", {"suites": ["d-identity"]})
    assert run("verify", {"suites": ["d-identity"]}, timing=True)["timing"]["suites"][0]["cases"] == 288


def test_main_verify_failure_exits_two(monkeypatch, capsys):
    def fake_suites(names=None, seed=2026):
        return [SuiteResult("d-identity", False, "forced failure")]

    monkeypatch.setattr(cli, "run_suites", fake_suites)
    assert main(["verify"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False


def test_scalar_json_shapes():
    from freeboson.cli import _scalar_json
    from freeboson.scalars import rational, root

    assert _scalar_json(rational(Fraction(3, 4))) == "3/4"
    assert _scalar_json(rational(1, 2)) == ["1", "2"]
    assert _scalar_json(root(2) * Fraction(-1, 3)) == {"radicals": {"2": ["-1/3", "0"]}}
    assert _scalar_json(complex(0.5, -1.0)) == [0.5, -1.0]


def test_package_exports_resolve():
    import freeboson

    assert [name for name in freeboson.__all__ if not hasattr(freeboson, name)] == []


def test_main_hsnorm_large_mode_cap(tmp_path, capsys):
    discs = [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}]
    # one mode per recursion level used to overflow the stack here
    config = _write(tmp_path, "h.json", {"discs": discs, "truncation": {"M": 3000, "N": 0}})
    assert main(["hsnorm", "--config", config]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"] == [{"total_insertions": 0, "tuple_count": 1, "partial_sum": "1"}]
    # comb(303, 3) tuples: refused before any index is built
    config = _write(tmp_path, "h.json", {"discs": discs, "truncation": {"M": 150, "N": 3}})
    start = time.perf_counter()
    assert main(["hsnorm", "--config", config]) == 1
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "ResourceError"
    assert elapsed < 1.0


@pytest.mark.parametrize("command,payload", [
    ("amplitude", {"discs": [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}],
                   "states": [[{"100000": 1}, {"1": 1}]]}),
    ("correlator", {"words": [[[{"m": 200000, "re": 0}], [{"m": 200000, "re": 1}]]]}),
    ("gram", {"states": [[[{"m": 200000, "re": "1/2"}]]]}),
])
def test_main_huge_order_is_refused_fast(tmp_path, capsys, command, payload):
    config = _write(tmp_path, "big.json", payload)
    start = time.perf_counter()
    assert main([command, "--config", config]) == 1
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "ResourceError"


@pytest.mark.parametrize("command,payload,module", [
    # a pairing DP bound of 2^14998 states
    ("amplitude", {"discs": [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}],
                   "states": [[{str(m): 1 for m in range(1, 7500)}] * 2]}, "pairing"),
    # 12 M + 1 tuples through one insertion, M of 4300 digits
    ("hsnorm", {"discs": [{"a_re": 8 * i, "q_re": "1/8"} for i in range(12)],
                "truncation": {"M": 10 ** 4300 - 1, "N": 2}}, "amplitude"),
])
def test_main_guard_counts_too_long_to_print(tmp_path, capsys, command, payload, module):
    # a count of more digits than the interpreter prints still makes a message
    config = _write(tmp_path, "big.json", payload)
    start = time.perf_counter()
    assert main([command, "--config", config]) == 1
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "ResourceError"
    assert out["error"]["module"] == module
    assert "-bit integer>" in out["error"]["message"]


def test_main_exact_output_over_the_interpreter_digit_cap(tmp_path, capsys):
    # 12 singletons of order 3 at k/p_k + i(k+1)/p'_k, the primes 101..167
    # forwards and backwards: parts of over 9000 digits, beyond the
    # interpreter's default cap of 4300
    primes = [p for p in range(101, 168) if all(p % d for d in range(2, p))]
    points = [(Fraction(k, primes[k - 1]), Fraction(k + 1, primes[-k])) for k in range(1, 13)]
    word = [[{"m": 3, "re": str(re), "im": str(im)}] for re, im in points]
    config = _write(tmp_path, "w.json", {"words": [word]})
    cap = sys.get_int_max_str_digits()
    code = main(["correlator", "--config", config])
    assert sys.get_int_max_str_digits() == cap
    out = json.loads(capsys.readouterr().out)
    if code:
        assert code == 1 and out["error"]["type"] == "ResourceError"
        return
    expected = expect_combo(WickWord.plain(*[(3, rational(re, im)) for re, im in points]))
    sys.set_int_max_str_digits(0)
    try:
        assert [Fraction(part) for part in out["expectations"][0]] == [expected.re, expected.im]
    finally:
        sys.set_int_max_str_digits(cap)
    assert max(len(part) for part in out["expectations"][0]) > 4300


def test_exact_output_digit_guard():
    cap = sys.get_int_max_str_digits()
    at_guard = Fraction(1, 10 ** cli.MAX_DIGITS - 1)  # MAX_DIGITS nines
    assert cli._scalar_json(rational(0, at_guard)) == ["0", f"1/{'9' * cli.MAX_DIGITS}"]
    for over in (Fraction(10 ** cli.MAX_DIGITS, 7), Fraction(1, 2 ** cli._MAX_BITS)):
        with pytest.raises(ResourceError) as caught:
            cli._scalar_json(rational(over))
        assert caught.value.module == "cli"
    # the interpreter's cap is restored on both ways out
    assert sys.get_int_max_str_digits() == cap


@pytest.mark.parametrize("command", ["amplitude", "hsnorm"])
def test_main_disc_count_guard(tmp_path, capsys, command):
    # discs of radius 1/8, 8 apart on the real line: pairwise disjoint
    for n, code in ((MAX_DISCS + 1, 1), (MAX_DISCS, 0)):
        discs = [{"a_re": 8 * i, "q_re": "1/8"} for i in range(n)]
        if command == "amplitude":
            payload = {"discs": discs, "states": [[{"1": 1}, {"1": 1}] + [{}] * (n - 2)]}
        else:
            payload = {"discs": discs, "truncation": {"M": 1, "N": 2}}
        config = _write(tmp_path, "discs.json", payload)
        start = time.perf_counter()
        assert main([command, "--config", config]) == code
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        if code:
            # refused before the walk over the disc pairs
            assert out["error"]["type"] == "ResourceError"
            assert out["error"]["module"] == "amplitude"
            assert elapsed < 1.0
        elif command == "amplitude":
            # -2 (1/8)^2 C(1, 0, 1, 8), with C(1, 0, 1, 8) = -1/128
            assert out["entries"] == ["1/4096"]
        else:
            assert len(out["rows"]) == 3


@pytest.mark.parametrize("n,code", [(15_001, 0), (15_000, 1)])
def test_main_long_plain_word_is_answered_fast(tmp_path, capsys, n, code):
    # the cross-group pole scan is one pass: an odd word has no pairing, and
    # an even one reaches the pairing guard
    word = [[{"m": 1, "re": k}] for k in range(n)]
    config = _write(tmp_path, "w.json", {"words": [word]})
    start = time.perf_counter()
    assert main(["correlator", "--config", config]) == code
    assert time.perf_counter() - start < 2.0
    out = json.loads(capsys.readouterr().out)
    if code == 0:
        assert out["expectations"] == ["0"]
    else:
        assert out["error"]["type"] == "ResourceError"
        assert out["error"]["module"] == "pairing"


def test_main_unexpected_error_is_a_document(monkeypatch, tmp_path, capsys):
    def broken(command, config, timing=False):
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    monkeypatch.setattr(cli, "run", broken)
    config = _write(tmp_path, "c.json", {"words": [FOUR_POINT]})
    assert main(["correlator", "--config", config]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "error": {
            "module": "cli",
            "type": "ValueError",
            "message": "Exceeds the limit (4300 digits) for integer string conversion",
        }
    }


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def test_module_entry_point_runs_without_warning(tmp_path):
    # an hsnorm outside the regime d/R > 4 sqrt(r) reports it in the document only
    out_of_regime = {"discs": [{"a_re": 0, "q_re": 1}, {"a_re": 3, "q_re": 1}],
                     "truncation": {"M": 1, "N": 2}}
    for command, payload, key, expected in [
        ("correlator", {"words": [FOUR_POINT]}, "expectations", ["169/576"]),
        ("hsnorm", out_of_regime, "regime", False),
    ]:
        config = _write(tmp_path, f"{command}.json", payload)
        proc = _python(
            ["-W", "error", "-m", "freeboson.cli", command, "--config", config],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)[key] == expected


def test_module_entry_point_usage_error_is_a_document(tmp_path):
    config = _write(tmp_path, "c.json", {"words": [FOUR_POINT]})
    proc = _python(
        ["-m", "freeboson.cli", "gram", "--config", config, "--bogus"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "error": {
            "module": "cli",
            "type": "SchemaError",
            "message": "unrecognized arguments: --bogus",
        }
    }


def test_a_command_runs_without_importing_argparse(tmp_path):
    # the start-up and per-call path of a one-shot command: a stray import
    # of argparse would cost a few milliseconds on every call
    config = _write(tmp_path, "c.json", {"discs": _DISCS, "truncation": {"M": 1, "N": 2}})
    out = str(tmp_path / "out.json")
    proc = _python(
        ["-c", "import sys; import freeboson.cli as cli; code = cli.main(sys.argv[1:]); "
         "print(code, 'argparse' in sys.modules)",
         "hsnorm", "--config", config, "--out", out],
        capture_output=True, text=True,
    )
    assert (proc.stdout, proc.stderr) == ("0 False\n", "")
    assert json.loads(Path(out).read_text())["command"] == "hsnorm"


def test_closed_stdout_exits_3_without_traceback(tmp_path):
    config = _write(tmp_path, "c.json", {"words": [FOUR_POINT]})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python(
            ["-c", "import sys; from freeboson.cli import main; sys.exit(main(sys.argv[1:]))",
             "correlator", "--config", config],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == ""
