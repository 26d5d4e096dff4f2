"""Tests of the benchmark harness itself (no freeboson import needed).

    python3 -m pytest bench/test_harness.py
"""
import hashlib
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent


# ---------------------------------------------------------------- generators

def _stream_digest(seed: int, count: int = 24) -> str:
    h = hashlib.sha256()
    for workload in workloads.WORKLOADS:
        for i in range(count):
            command, config = workloads.op(workload, seed, i)
            h.update(command.encode() + workloads.config_bytes(config))
    return h.hexdigest()


def test_same_seed_gives_byte_identical_configs_across_processes():
    code = (
        "import test_harness; print(test_harness._stream_digest(7))"
    )
    outputs = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=BENCH, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.add(proc.stdout.strip())
    assert outputs == {_stream_digest(7)}


def test_seeds_change_inputs_and_ops_never_repeat_within_a_run():
    for workload in ("pairing-heavy", "gram-reflection", "hs-sweep"):
        first = [workloads.op(workload, 7, i) for i in range(16)]
        assert first != [workloads.op(workload, 8, i) for i in range(16)], workload
    for workload in workloads.WORKLOADS:
        configs = [workloads.config_bytes(workloads.op(workload, 3, i)[1]) for i in range(48)]
        assert len(set(configs)) == len(configs), workload


def _disjoint(discs) -> bool:
    def val(d, key):
        return Fraction(d.get(key, 0))

    for i, a in enumerate(discs):
        for b in discs[i + 1:]:
            gap = (val(a, "a_re") - val(b, "a_re")) ** 2 + (val(a, "a_im") - val(b, "a_im")) ** 2
            ra = val(a, "q_re") ** 2 + val(a, "q_im") ** 2
            rb = val(b, "q_re") ** 2 + val(b, "q_im") ** 2
            t = gap - ra - rb
            if not (t > 0 and t * t > 4 * ra * rb):
                return False
    return True


@pytest.mark.parametrize("workload", ["pairing-heavy", "hs-sweep"])
def test_generated_discs_are_disjoint(workload):
    for seed in range(40):
        for i in range(16):
            command, config = workloads.op(workload, seed, i)
            if "discs" in config:
                assert _disjoint(config["discs"]), (seed, i)


def test_hs_sweep_mostly_in_regime():
    flags = [checks._regime(workloads.op("hs-sweep", seed, i)[1]["discs"])
             for seed in range(20) for i in range(6)]
    assert sum(flags) > len(flags) // 2


# ---------------------------------------------------------------- self time

def test_self_time_on_nested_spans():
    log = spans.SpanLog()
    root = log.add("cli.main", 0.0, 10.0)
    a = log.add("correlator.expect_wick", 1.0, 4.0, root)
    log.add("scalars.mul", 2.0, 3.0, a)
    log.add("scalars.mul", 5.0, 9.0, root)
    # overlaps its sibling and runs past the parent's end
    log.add("scalars.add", 8.0, 11.0, root)
    totals = spans.layer_totals(log)
    # root covered by [1,4] u [5,10] = 8 of its 10 seconds
    assert totals["cli.main"]["self_s"] == pytest.approx(2.0)
    assert totals["correlator.expect_wick"]["self_s"] == pytest.approx(2.0)
    assert totals["scalars.mul"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert totals["scalars.add"]["self_s"] == pytest.approx(3.0)
    scaled = spans.layer_totals(log, scale=[0.5] * len(log))
    assert scaled["cli.main"]["self_s"] == pytest.approx(1.0)
    assert scaled["scalars.mul"]["calls"] == 2


def test_tracer_wraps_every_lookup_place_and_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def kernel(x):
        return x + 1

    class Num:
        __module__ = "fakepkg.core"

        def __init__(self, v):
            self.v = v

        def __mul__(self, other):
            return Num(self.v * (other.v if isinstance(other, Num) else other))

        __rmul__ = __mul__

    core.kernel, core.Num = kernel, Num
    user.kernel = kernel                      # from .core import kernel
    user.TABLE = {"k": kernel}                 # dispatch table
    pkg.kernel = kernel                        # package re-export
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)

    log = spans.SpanLog()
    tracer = spans.Tracer(log, "fakepkg")
    assert tracer.wrap("fakepkg.core:kernel", "core.kernel") == 4
    assert tracer.wrap("fakepkg.core:Num.__mul__", "core.mul") == 2
    assert tracer.wrap("fakepkg.core:gone", "core.gone") == 0
    assert tracer.missing == ["fakepkg.core:gone"]
    user.kernel(1), user.TABLE["k"](1), pkg.kernel(1), core.kernel(1)
    (Num(2) * Num(3)).v, (3 * Num(2)).v
    totals = spans.layer_totals(log)
    assert totals["core.kernel"]["calls"] == 4
    assert totals["core.mul"]["calls"] == 2
    tracer.remove()
    assert user.kernel is kernel and user.TABLE["k"] is kernel and pkg.kernel is kernel
    assert Num.__dict__["__rmul__"] is Num.__dict__["__mul__"]
    assert not hasattr(Num.__mul__, "__wrapped__")


# ---------------------------------------------------------------- reference check

FOUR_POINT = [[{"m": 1, "re": 0}], [{"m": 1, "re": 1}], [{"m": 1, "re": 2}], [{"m": 1, "re": 3}]]


def test_independent_expectation_matches_golden_value():
    value, count = checks.word_expectation(FOUR_POINT)
    assert value == (Fraction(169, 576), 0) and count == 3
    lone_group = [[{"m": 1, "re": "1/4"}, {"m": 1, "re": "3/4"}]]
    assert checks.word_expectation(lone_group) == ((0, 0), 0)


def test_reference_check_flags_an_altered_output():
    config = {"words": [FOUR_POINT]}
    doc = {"command": "correlator", "mode": "exact", "expectations": ["169/576"], "pairings": 3}
    reference = {"seed": 1, "ops": [[checks.config_digest("correlator", config), checks.digest(doc)]]}
    assert checks.check_output("correlator", config, doc) is None
    assert checks.compare_reference(reference, 0, "correlator", config, doc) is None

    altered = dict(doc, expectations=["169/577"])
    assert "differs from reference" in checks.compare_reference(reference, 0, "correlator", config, altered)
    assert checks.check_output("correlator", config, altered) is not None
    assert checks.check_output("correlator", config, dict(doc, pairings=4)) is not None
    assert checks.check_output("correlator", config, {"error": {"type": "PoleError"}}) is not None
    # inputs that were not recorded are not compared by digest
    other = {"words": [FOUR_POINT[:2]]}
    assert checks.compare_reference(reference, 0, "correlator", other, altered) is None
    assert checks.compare_reference(reference, 1, "correlator", config, altered) is None


def test_recorded_reference_matches_the_generators():
    for workload in workloads.WORKLOADS:
        reference = checks.load_reference(workload)
        for index, (config_digest, _) in enumerate(reference["ops"][:16]):
            command, config = workloads.op(workload, reference["seed"], index)
            assert checks.config_digest(command, config) == config_digest, (workload, index)


def test_digest_ignores_float_diagnostics_and_free_text():
    gram = {"command": "gram", "matrix": [["1/2"]], "psd": True, "size": 1,
            "min_eigenvalue": 0.5, "hermiticity_defect": 0.0}
    assert checks.digest(gram) == checks.digest(dict(gram, min_eigenvalue=0.5000000001))
    verify = {"command": "verify", "seed": 3, "passed": True,
              "suites": [{"name": "scaling", "passed": True, "detail": "30 cases"}]}
    changed = {**verify, "suites": [{"name": "scaling", "passed": True, "detail": "31 cases"}]}
    assert checks.digest(verify) == checks.digest(changed)
    failed = {**verify, "suites": [{"name": "scaling", "passed": False, "detail": "30 cases"}]}
    assert checks.digest(verify) != checks.digest(failed)


def test_gram_and_hsnorm_invariants():
    config = {"states": [[[{"m": 1, "re": "1/2"}]], [[{"m": 2, "re": "1/3"}]]]}
    good = {"command": "gram", "size": 2, "psd": True,
            "matrix": [["4/9", ["1/5", "1/7"]], [["1/5", "-1/7"], "1/3"]]}
    assert checks.check_output("gram", config, good) is None
    bad = dict(good, matrix=[["4/9", ["1/5", "1/7"]], [["1/5", "1/7"], "1/3"]])
    assert "Hermiticity" in checks.check_output("gram", config, bad)

    discs = [{"a_re": 0, "q_re": 1}, {"a_re": 10, "q_re": 1}]
    hs_config = {"discs": discs, "truncation": {"M": 1, "N": 1}}
    rows = [{"total_insertions": 0, "tuple_count": 1, "partial_sum": "1"},
            {"total_insertions": 1, "tuple_count": 3, "partial_sum": "1"}]
    hs = {"command": "hsnorm", "regime": True, "bound": "23/22", "rows": rows}
    assert checks.check_output("hsnorm", hs_config, hs) is None
    above = dict(hs, bound="1/2")
    assert "bound" in checks.check_output("hsnorm", hs_config, above)
