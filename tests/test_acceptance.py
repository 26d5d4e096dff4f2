"""Acceptance battery: eleven end-to-end checks, one test per criterion.

Each test prints a single "acceptance N: PASS/FAIL" line (visible with -s)
and enforces the stated time budget where one applies.  Random inputs are
seeded so the battery is reproducible.
"""
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from freeboson.algebra import (
    LinearCombination,
    WickGroup,
    WickWord,
    d_coeff,
    rescale,
    theta,
    wick_expand,
)
from freeboson.amplitude import (
    Disc,
    DiscConfiguration,
    amplitude_entry,
    hs_bound,
    hs_truncated,
)
from freeboson.correlator import expect_combo, mobius_check
from freeboson.errors import RegimeError
from freeboson.fock import FockVector, fock_inner, ladder, wick_origin_to_fock
from freeboson.hilbert import gram, inner
from freeboson.sampling import (
    partition_multisets,
    random_fock_vector,
    random_plain_word,
    random_state_group,
    random_wick_word,
    rational_point,
)
from freeboson.scalars import ZERO, rational, real_value, root
from fock_reference import circle_quadrature, contour_alpha_check


@contextmanager
def criterion(n: int, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        print(f"acceptance {n}: FAIL")
        raise
    print(f"acceptance {n}: PASS ({elapsed:.2f}s)")


def test_01_reflection_coefficients_involutive():
    with criterion(1, budget=1.0):
        for m in range(1, 21):
            for b in range(1, m + 1):
                total = sum(d_coeff(m, a) * d_coeff(a, b) for a in range(1, 21))
                assert total == (1 if m == b else 0)


def test_02_reflection_involution_and_conjugation():
    rng = random.Random(101)
    with criterion(2, budget=10.0):
        for trial in range(200):
            n = rng.randint(1, 6)
            if trial % 2:
                W = random_wick_word(rng, n)
            else:
                W = random_plain_word(rng, n)
            assert theta(theta(W)) == LinearCombination.of(W)
            assert expect_combo(theta(W)) == expect_combo(W).conjugate()


def test_03_wick_expansion_consistency():
    rng = random.Random(202)
    with criterion(3, budget=30.0):
        for _ in range(12):
            n = rng.randint(2, 8)
            W = random_wick_word(rng, n)
            expansion = LinearCombination.of(WickWord.unit())
            for group in W.groups:
                expansion = expansion * wick_expand(group)
            assert expect_combo(expansion) == expect_combo(W)


def test_04_random_gram_matrices_positive():
    rng = random.Random(303)
    with criterion(4, budget=60.0):
        for _ in range(50):
            size = rng.randint(3, 30)
            states = [
                WickWord.single_group(random_state_group(rng, rng.randint(1, 2)))
                for _ in range(size)
            ]
            report = gram(states, tol=1e-10)
            assert report.size == size
            assert report.psd


def test_05_inner_product_route_agreement():
    rng = random.Random(404)
    with criterion(5):
        for j, k in product(range(1, 5), range(1, 5)):
            for _ in range(2):
                F = random_state_group(rng, j)
                G = random_state_group(rng, k)
                wF, wG = WickWord.single_group(F), WickWord.single_group(G)
                via_reflection = expect_combo(theta(wF) * wG)
                assert inner(wF, wG) == via_reflection
        origin = WickWord.single_group(WickGroup.of((1, 0)))
        assert inner(origin, origin) == rational(Fraction(1, 2))


def test_06_ladder_commutators_and_adjointness():
    rng = random.Random(505)
    with criterion(6):
        vectors = [random_fock_vector(rng) for _ in range(3)]
        for v in vectors:
            for m in range(-6, 7):
                for n in range(-6, 7):
                    bracket = ladder(ladder(v, n), m) - ladder(ladder(v, m), n)
                    expected = v.scaled(m) if m + n == 0 else FockVector.zero()
                    assert bracket == expected
        for _ in range(20):
            v = random_fock_vector(rng)
            w = random_fock_vector(rng)
            m = rng.randint(-6, 6)
            assert fock_inner(ladder(v, m), w) == fock_inner(v, ladder(w, -m))


def test_07_origin_dictionary_is_isometric():
    with criterion(7):
        multisets = partition_multisets(8)
        states = {
            orders: WickWord.unit()
            if not orders
            else WickWord.single_group(WickGroup.of(*((m, 0) for m in orders)))
            for orders in multisets
        }
        vectors = {orders: wick_origin_to_fock(orders) for orders in multisets}
        for A in multisets:
            for B in multisets:
                assert fock_inner(vectors[A], vectors[B]) == inner(states[A], states[B])
        two_quanta = ladder(ladder(FockVector.vacuum(), -2), -2)
        assert fock_inner(two_quanta, two_quanta) == 8


def test_08_contour_realization_of_ladder():
    with criterion(8):
        group = WickGroup.of((1, 0.25))
        worst = contour_alpha_check(1, group, radius=0.5, nodes=64)
        assert worst < 1e-10

        # the vacuum component directly: sqrt(2) * (1/2pi) int z <:[1,z]::[1,1/4]:> dz
        def integrand(z: complex) -> complex:
            word = WickWord.single_group(WickGroup.of((1, z))) * WickWord.single_group(group)
            return z * complex(expect_combo(word))

        lhs = math.sqrt(2.0) * circle_quadrature(integrand, 0.5, 64, max_nodes=1024)
        assert abs(lhs - complex(0.0, -1.0 / math.sqrt(2.0))) < 1e-10


def test_09_two_disc_amplitude_entries():
    with criterion(9):
        config = DiscConfiguration(
            (Disc(rational(0), rational(1)), Disc(rational(10), rational(1)))
        )
        both_first = amplitude_entry(config, [{1: 1}, {1: 1}])
        assert both_first == rational(Fraction(1, 100))
        mixed = amplitude_entry(config, [{1: 1}, {2: 1}])
        assert mixed == root(2) * Fraction(-1, 1000)
        assert amplitude_entry(config, [{1: 1}, {}]) == ZERO
        assert amplitude_entry(config, [{2: 1}, {1: 2}]) == ZERO


def test_10_truncated_norms_bounded_and_monotone():
    with criterion(10, budget=300.0):
        config = DiscConfiguration(
            (Disc(rational(0), rational(1)), Disc(rational(10), rational(1)))
        )
        bound = real_value(hs_bound(config))
        assert bound == Fraction(23, 22)
        finals: dict[tuple[int, int], Fraction] = {}
        for M in range(1, 5):
            for N in range(0, 5):
                rows = hs_truncated(config, M, N)
                sums = [real_value(row.partial_sum) for row in rows]
                assert all(s <= bound for s in sums)
                assert sums == sorted(sums)
                assert rows[-1].tuple_count <= 100_000
                finals[(M, N)] = sums[-1]
        assert rows[-1].tuple_count == 495  # the (4, 4) truncation
        for M in range(1, 5):
            for N in range(0, 5):
                if M > 1:
                    assert finals[(M - 1, N)] <= finals[(M, N)]
                if N > 0:
                    assert finals[(M, N - 1)] <= finals[(M, N)]

        threshold_config = DiscConfiguration(
            (Disc(rational(0), rational(1)), Disc(rational(4, 4), rational(1)))
        )
        with pytest.raises(RegimeError):
            hs_bound(threshold_config)


def test_11_scaling_and_mobius_covariance():
    rng = random.Random(606)
    with criterion(11):
        for trial in range(100):
            n = rng.randint(1, 5)
            if trial % 2:
                W = random_wick_word(rng, n)
            else:
                W = random_plain_word(rng, n)
            a = rational_point(rng, nonzero=False)
            q = rational_point(rng)
            assert expect_combo(rescale(W, a, q)) == expect_combo(W)
        for _ in range(10):
            W = random_plain_word(rng, rng.randint(2, 4), max_order=1)
            lhs, rhs = mobius_check(W, (0, 1, 1, 0))
            assert lhs == rhs
            a = rational_point(rng, nonzero=False)
            q = rational_point(rng)
            lhs, rhs = mobius_check(W, (q, a, 0, 1))
            assert lhs == rhs
