"""The identity suites: their verdicts at the default seed, their failure
paths, and where their work runs."""
import itertools
from collections import Counter

import pytest

import freeboson.verify as verify
from freeboson.errors import DomainError
from freeboson.verify import SUITES, run_suites

# (detail, cases) of every suite at the default seed 2026
PASSING = {
    "d-identity": ("involution identity to m=20, recursion to m=12", 288),
    "theta-involution": ("30 random words, exact", 30),
    "conjugation": ("30 random words, exact", 30),
    "scaling": ("30 rescalings and 16 fractional-linear maps, exact", 46),
    "wick-plain": ("12 random words with <= 6 insertions, exact", 12),
    "commutators": ("modes |m|,|n| <= 4 on 3 random vectors, exact", 252),
    "dictionary": ("900 origin-state pairs with sum <= 6, exact", 900),
    "oracle-agreement": ("29 random word pairs plus origin value, exact", 30),
}


def test_every_suite_passes_with_its_detail_and_cases():
    results = run_suites()
    assert [r.name for r in results] == list(SUITES)
    assert {r.name: (r.passed, r.detail, r.cases) for r in results} == {
        name: (True, detail, cases) for name, (detail, cases) in PASSING.items()
    }


def _plus_one(value):
    return value + 1


def _doubled(combination):
    return combination.scaled(2)


def _first_plus_one(pair):
    return pair[0] + 1, pair[1]


def _one_entry_off(table):
    return {**table, (7, 4): table[(7, 4)] + 1}


# suite, the dependency spoiled on one call, that call's number, the spoil,
# and the failed suite's detail and cases
FAILURES = [
    ("d-identity", "d_coeff", 50, _plus_one, "failed at (m,b)=(5,1)", 11),
    ("d-identity", "d_table", 1, _one_entry_off, "recursion mismatch at (7,4)", 235),
    ("theta-involution", "theta", 11, _doubled, "theta(theta(F)) != F", 6),
    ("conjugation", "expect_combo", 7, _plus_one, "expect(theta F) != conj(expect F)", 4),
    ("scaling", "expect_combo", 9, _plus_one, "expect(rescale(W)) != expect(W)", 5),
    ("scaling", "mobius_check", 1, _first_plus_one, "inversion map covariance failed", 31),
    ("scaling", "mobius_check", 4, _first_plus_one, "affine map covariance failed", 34),
    ("wick-plain", "expect_combo", 5, _plus_one, "grouped word != its Wick expansion", 3),
    ("commutators", "ladder", 100, _doubled, "[alpha_-2, alpha_2] failed", 25),
    ("commutators", "fock_inner", 5, _plus_one, "adjointness failed at m=-2", 246),
    ("dictionary", "inner", 100, _plus_one, "mismatch at (1, 1, 1) vs (1, 1, 1, 3)", 100),
    ("oracle-agreement", "inner", 12, _plus_one, "word pair 11", 12),
    ("oracle-agreement", "inner", 30, _plus_one, "norm of :[1,0]: is not 1/2", 30),
]


@pytest.mark.parametrize(
    "suite,dependency,call,spoil,detail,cases",
    FAILURES,
    ids=[f"{suite}-{dependency}-{call}" for suite, dependency, call, *_ in FAILURES],
)
def test_a_failed_check_ends_its_suite(monkeypatch, suite, dependency, call, spoil, detail, cases):
    original = getattr(verify, dependency)
    calls = itertools.count(1)

    def spoiled(*args):
        value = original(*args)
        return spoil(value) if next(calls) == call else value

    monkeypatch.setattr(verify, dependency, spoiled)
    (result,) = run_suites([suite])
    assert (result.name, result.passed, result.detail, result.cases) == (
        suite, False, detail, cases
    )


def test_each_suite_works_inside_its_suites_call(monkeypatch):
    """Each suite does all of its work inside its ``SUITES`` entry, as a
    wrapper around that entry (a tracer's span) sees it: every call of the
    suites' dependencies falls inside the wrapper of the suite that made it."""
    running = [None]
    calls = Counter()

    def wrapped(name, suite):
        def traced(*args, **kwargs):
            running[0] = name
            try:
                return suite(*args, **kwargs)
            finally:
                running[0] = None
        return traced

    def counted(fn):
        def counting(*args, **kwargs):
            calls[running[0]] += 1
            return fn(*args, **kwargs)
        return counting

    for name, suite in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, wrapped(name, suite))
    for dependency in ("d_coeff", "theta", "expect_combo", "ladder", "inner"):
        monkeypatch.setattr(verify, dependency, counted(getattr(verify, dependency)))
    assert all(result.passed for result in run_suites())
    assert calls[None] == 0
    assert set(calls) == set(SUITES)


def test_every_suite_name_is_checked_before_any_suite_runs(monkeypatch):
    calls = Counter()

    def spied(name, suite):
        def counting(*args, **kwargs):
            calls[name] += 1
            return suite(*args, **kwargs)
        return counting

    for name, suite in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, spied(name, suite))
    refusals = []
    for names in (["nope"], ["dictionary", "conjugation", "nope"]):
        with pytest.raises(DomainError) as caught:
            run_suites(names)
        refusals.append((caught.value.module, str(caught.value)))
    message = f"unknown suite 'nope'; available: {', '.join(SUITES)}"
    assert refusals[0] == refusals[1] == ("verify", message)
    assert calls == Counter()
