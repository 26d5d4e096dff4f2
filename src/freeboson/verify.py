"""Cross-module identity suites.

Each suite exercises one of the exact identities the engine is built on,
on deterministic pseudo-random data, and reports pass/fail with a short
detail string, the number of cases it checked and its wall-clock time.  All checks are exact (no tolerances) except where a suite
explicitly says otherwise.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace
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
    failure) and ``seconds`` is filled in by ``run_suites``."""

    name: str
    passed: bool
    detail: str
    cases: int = 0
    seconds: float = 0.0


def _suite_d_identity(rng: random.Random) -> SuiteResult:
    max_m = 20
    cases = 0
    for m in range(1, max_m + 1):
        for b in range(1, m + 1):
            cases += 1
            total = sum(d_coeff(m, a) * d_coeff(a, b) for a in range(b, m + 1))
            if total != (1 if m == b else 0):
                return SuiteResult("d-identity", False, f"failed at (m,b)=({m},{b})", cases)
    table = d_table(12)
    for (m, a), value in table.items():
        cases += 1
        if d_coeff(m, a) != value:
            return SuiteResult("d-identity", False, f"recursion mismatch at ({m},{a})", cases)
    return SuiteResult(
        "d-identity", True, f"involution identity to m={max_m}, recursion to m=12", cases
    )


def _random_word(rng: random.Random, n: int):
    if rng.random() < 0.5:
        return LinearCombination.of(random_plain_word(rng, n))
    return LinearCombination.of(random_wick_word(rng, n))


def _suite_theta_involution(rng: random.Random) -> SuiteResult:
    cases = 30
    for i in range(cases):
        F = _random_word(rng, rng.randint(1, 6))
        if theta(theta(F)) != F:
            return SuiteResult("theta-involution", False, "theta(theta(F)) != F", i + 1)
    return SuiteResult("theta-involution", True, f"{cases} random words, exact", cases)


def _suite_conjugation(rng: random.Random) -> SuiteResult:
    cases = 30
    for i in range(cases):
        F = _random_word(rng, rng.randint(2, 6))
        lhs = expect_combo(theta(F))
        rhs = scalars.conjugate(expect_combo(F))
        if lhs != rhs:
            return SuiteResult("conjugation", False, "expect(theta F) != conj(expect F)", i + 1)
    return SuiteResult("conjugation", True, f"{cases} random words, exact", cases)


def _suite_scaling(rng: random.Random) -> SuiteResult:
    cases = 30
    for i in range(cases):
        W = random_plain_word(rng, rng.randint(2, 6))
        a = rational_point(rng, nonzero=False)
        q = rational_point(rng)
        lhs = expect_combo(W)
        rhs = expect_combo(rescale(LinearCombination.of(W), a, q))
        if lhs != rhs:
            return SuiteResult("scaling", False, "expect(rescale(W)) != expect(W)", i + 1)
    for _ in range(8):
        n = rng.choice((2, 4))
        W = random_plain_word(rng, n, max_order=1)
        lhs, rhs = mobius_check(W, (0, 1, 1, 0))
        cases += 1
        if lhs != rhs:
            return SuiteResult("scaling", False, "inversion map covariance failed", cases)
        coeffs = (rational_point(rng), rational_point(rng, nonzero=False), scalars.ZERO, scalars.ONE)
        lhs, rhs = mobius_check(W, coeffs)
        cases += 1
        if lhs != rhs:
            return SuiteResult("scaling", False, "affine map covariance failed", cases)
    return SuiteResult(
        "scaling", True, "30 rescalings and 16 fractional-linear maps, exact", cases
    )


def _suite_wick_plain(rng: random.Random) -> SuiteResult:
    cases = 12
    for i in range(cases):
        W = random_wick_word(rng, rng.randint(2, 6))
        direct = expect_combo(W)
        expanded: LinearCombination | None = None
        for group in W.groups:
            term = wick_expand(group)
            expanded = term if expanded is None else expanded * term
        via_plain = expect_combo(expanded) if expanded is not None else scalars.ONE
        if direct != via_plain:
            return SuiteResult("wick-plain", False, "grouped word != its Wick expansion", i + 1)
    return SuiteResult("wick-plain", True, f"{cases} random words with <= 6 insertions, exact", cases)


def _suite_commutators(rng: random.Random) -> SuiteResult:
    vectors = [random_fock_vector(rng, max_level=8) for _ in range(3)]
    cases = 0
    for v in vectors:
        for m in range(-4, 5):
            for n in range(-4, 5):
                cases += 1
                lhs = ladder(ladder(v, n), m) - ladder(ladder(v, m), n)
                rhs = v.scaled(m) if m + n == 0 else FockVector.zero()
                if lhs != rhs:
                    return SuiteResult("commutators", False, f"[alpha_{m}, alpha_{n}] failed", cases)
    v, w = vectors[0], vectors[1]
    for m in range(-4, 5):
        cases += 1
        if fock_inner(ladder(v, -m), w) != fock_inner(v, ladder(w, m)):
            return SuiteResult("commutators", False, f"adjointness failed at m={m}", cases)
    return SuiteResult("commutators", True, "modes |m|,|n| <= 4 on 3 random vectors, exact", cases)


def _suite_dictionary(rng: random.Random) -> SuiteResult:
    multisets = partition_multisets(6)
    vectors = [wick_origin_to_fock(A) for A in multisets]
    states = [
        as_state(
            WickWord.single_group(WickGroup.of(*((m, 0) for m in A))) if A else WickWord.unit()
        )
        for A in multisets
    ]
    checked = 0
    for A, vA, sA in zip(multisets, vectors, states):
        for B, vB, sB in zip(multisets, vectors, states):
            checked += 1
            if fock_inner(vA, vB) != inner(sA, sB):
                return SuiteResult("dictionary", False, f"mismatch at {A} vs {B}", checked)
    return SuiteResult(
        "dictionary", True, f"{checked} origin-state pairs with sum <= 6, exact", checked
    )


def _suite_oracle_agreement(rng: random.Random) -> SuiteResult:
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
        if inner(L, R) != expect_combo(theta(L) * R):
            return SuiteResult("oracle-agreement", False, f"word pair {i}", i + 1)
    cases = len(pairs) + 1
    origin = WickGroup.of((1, 0))
    if inner(origin, origin) != scalars.rational(Fraction(1, 2)):
        return SuiteResult("oracle-agreement", False, "norm of :[1,0]: is not 1/2", cases)
    return SuiteResult(
        "oracle-agreement", True, f"{len(pairs)} random word pairs plus origin value, exact", cases
    )


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
    each result carrying its wall-clock seconds."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        fn = SUITES.get(name)
        if fn is None:
            raise DomainError(_MODULE, f"unknown suite {name!r}; available: {', '.join(SUITES)}")
        started = time.perf_counter()
        result = fn(random.Random(seed))
        results.append(replace(result, seconds=time.perf_counter() - started))
    return results
