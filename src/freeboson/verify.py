"""Cross-module identity suites.

Each suite exercises one of the exact identities the engine is built on, on
deterministic pseudo-random data; every check is exact.  A suite is called
as ``suite(rng, check)``, calls ``check(passed, detail, *args)`` once per
check and returns its summary line.  ``run_suites`` owns the rest: the first
failed check ends the suite with ``detail.format(*args)`` as its detail (a
detail is formatted only then), and each result carries the verdict, the
number of checks made and the suite's wall-clock time.  A suite does all of
its work inside its call, so a wrapper around a ``SUITES`` entry times all
of it.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .algebra import (
    LinearCombination,
    WickGroup,
    WickWord,
    d_coeff,
    d_table,
    rescale,
    theta,
    wick_expand,
)
from .correlator import expect_combo, mobius_check
from .errors import DomainError
from .fock import FockVector, fock_inner, ladder, wick_origin_to_fock
from .hilbert import as_state, inner
from .sampling import (
    partition_multisets,
    random_fock_vector,
    random_plain_word,
    random_state_group,
    random_wick_word,
    rational_point,
)

_MODULE = "verify"


@dataclass(frozen=True)
class SuiteResult:
    """One suite's verdict; ``cases`` counts the checks made (up to the first
    failure) and ``seconds`` is the suite's wall-clock time."""

    name: str
    passed: bool
    detail: str
    cases: int = 0
    seconds: float = 0.0


class _Failed(Exception):
    """A suite's first failed check; its one argument is the detail."""


def _suite_d_identity(rng: random.Random, check) -> str:
    max_m = 20
    for m in range(1, max_m + 1):
        for b in range(1, m + 1):
            total = sum(d_coeff(m, a) * d_coeff(a, b) for a in range(b, m + 1))
            check(total == (1 if m == b else 0), "failed at (m,b)=({},{})", m, b)
    for (m, a), value in d_table(12).items():
        check(d_coeff(m, a) == value, "recursion mismatch at ({},{})", m, a)
    return f"involution identity to m={max_m}, recursion to m=12"


def _random_word(rng: random.Random, n: int):
    if rng.random() < 0.5:
        return LinearCombination.of(random_plain_word(rng, n))
    return LinearCombination.of(random_wick_word(rng, n))


def _suite_theta_involution(rng: random.Random, check) -> str:
    words = 30
    for _ in range(words):
        F = _random_word(rng, rng.randint(1, 6))
        check(theta(theta(F)) == F, "theta(theta(F)) != F")
    return f"{words} random words, exact"


def _suite_conjugation(rng: random.Random, check) -> str:
    words = 30
    for _ in range(words):
        F = _random_word(rng, rng.randint(2, 6))
        lhs, rhs = expect_combo(theta(F)), expect_combo(F).conjugate()
        check(lhs == rhs, "expect(theta F) != conj(expect F)")
    return f"{words} random words, exact"


def _suite_scaling(rng: random.Random, check) -> str:
    for _ in range(30):
        W = random_plain_word(rng, rng.randint(2, 6))
        a = rational_point(rng, nonzero=False)
        q = rational_point(rng)
        lhs = expect_combo(W)
        rhs = expect_combo(rescale(LinearCombination.of(W), a, q))
        check(lhs == rhs, "expect(rescale(W)) != expect(W)")
    for _ in range(8):
        n = rng.choice((2, 4))
        W = random_plain_word(rng, n, max_order=1)
        lhs, rhs = mobius_check(W, (0, 1, 1, 0))
        check(lhs == rhs, "inversion map covariance failed")
        coeffs = (rational_point(rng), rational_point(rng, nonzero=False), scalars.ZERO, scalars.ONE)
        lhs, rhs = mobius_check(W, coeffs)
        check(lhs == rhs, "affine map covariance failed")
    return "30 rescalings and 16 fractional-linear maps, exact"


def _suite_wick_plain(rng: random.Random, check) -> str:
    words = 12
    for _ in range(words):
        W = random_wick_word(rng, rng.randint(2, 6))
        expanded = functools.reduce(operator.mul, (wick_expand(g) for g in W.groups))
        check(expect_combo(W) == expect_combo(expanded), "grouped word != its Wick expansion")
    return f"{words} random words with <= 6 insertions, exact"


def _suite_commutators(rng: random.Random, check) -> str:
    vectors = [random_fock_vector(rng, max_level=8) for _ in range(3)]
    for v in vectors:
        for m in range(-4, 5):
            for n in range(-4, 5):
                lhs = ladder(ladder(v, n), m) - ladder(ladder(v, m), n)
                rhs = v.scaled(m) if m + n == 0 else FockVector.zero()
                check(lhs == rhs, "[alpha_{}, alpha_{}] failed", m, n)
    v, w = vectors[0], vectors[1]
    for m in range(-4, 5):
        lhs, rhs = fock_inner(ladder(v, -m), w), fock_inner(v, ladder(w, m))
        check(lhs == rhs, "adjointness failed at m={}", m)
    return "modes |m|,|n| <= 4 on 3 random vectors, exact"


def _suite_dictionary(rng: random.Random, check) -> str:
    multisets = partition_multisets(6)
    vectors = [wick_origin_to_fock(A) for A in multisets]
    states = [
        as_state(
            WickWord.single_group(WickGroup.of(*((m, 0) for m in A))) if A else WickWord.unit()
        )
        for A in multisets
    ]
    for A, vA, sA in zip(multisets, vectors, states):
        for B, vB, sB in zip(multisets, vectors, states):
            check(fock_inner(vA, vB) == inner(sA, sB), "mismatch at {} vs {}", A, B)
    return f"{len(multisets) ** 2} origin-state pairs with sum <= 6, exact"


def _suite_oracle_agreement(rng: random.Random, check) -> str:
    pairs = [
        tuple(WickWord.single_group(random_state_group(rng, n)) for n in arities)
        for arities in itertools.product((1, 2, 3), repeat=2)
        for _ in range(3)
    ]
    # several groups per side reach the left-left and right-right weights
    pairs += [
        tuple(random_wick_word(rng, 3, max_order=1, max_group=2) for _ in range(2))
        for _ in range(2)
    ]
    for i, (L, R) in enumerate(pairs):
        check(inner(L, R) == expect_combo(theta(L) * R), "word pair {}", i)
    origin = WickGroup.of((1, 0))
    check(inner(origin, origin) == scalars.rational(Fraction(1, 2)), "norm of :[1,0]: is not 1/2")
    return f"{len(pairs)} random word pairs plus origin value, exact"


SUITES = {
    "d-identity": _suite_d_identity,
    "theta-involution": _suite_theta_involution,
    "conjugation": _suite_conjugation,
    "scaling": _suite_scaling,
    "wick-plain": _suite_wick_plain,
    "commutators": _suite_commutators,
    "dictionary": _suite_dictionary,
    "oracle-agreement": _suite_oracle_agreement,
}


def run_suites(names=None, seed: int = 2026) -> list[SuiteResult]:
    """Run the named identity suites (all by default) with a fixed seed,
    by the check rule of the module docstring."""
    if names is None:
        names = list(SUITES)
    # every name is checked before the first suite runs
    for name in names:
        if name not in SUITES:
            raise DomainError(_MODULE, f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    results = []
    for name in names:
        cases = 0

        def check(passed: bool, detail: str, *args) -> None:
            nonlocal cases
            cases += 1
            if not passed:
                raise _Failed(detail.format(*args))

        started = time.perf_counter()
        try:
            passed, detail = True, SUITES[name](random.Random(seed), check)
        except _Failed as failure:
            passed, detail = False, failure.args[0]
        results.append(SuiteResult(name, passed, detail, cases, time.perf_counter() - started))
    return results
