"""Deterministic sample generators for identity suites and tests.

Everything draws from a caller-supplied random.Random so suites are
reproducible; points are exact Gaussian rationals in the open unit disc.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from . import scalars
from .algebra import Insertion, WickGroup, WickWord
from .fock import FockIndex, FockVector
from .scalars import Exact


def rational_point(rng: random.Random, nonzero: bool = True, avoid: Optional[set] = None) -> Exact:
    """A random exact Gaussian rational in the open unit disc, with
    denominator 3 to 8."""
    while True:
        den = rng.randint(3, 8)
        re = Fraction(rng.randint(-den + 1, den - 1), den)
        im = Fraction(rng.randint(-den + 1, den - 1), den)
        if re * re + im * im >= 1:
            continue
        if nonzero and re == 0 and im == 0:
            continue
        z = scalars.rational(re, im)
        key = scalars.sort_key(z)
        if avoid is not None:
            if key in avoid:
                continue
            avoid.add(key)
        return z


def random_orders(rng: random.Random, n: int, max_order: int = 3) -> list[int]:
    """n insertion orders, biased small, with product at most 64 (keeps the
    reflection expansion of a word from blowing up)."""
    population = tuple(m for m in (1, 1, 1, 2, 2, 3) if m <= max_order) or (1,)
    while True:
        orders = [rng.choice(population) for _ in range(n)]
        prod = 1
        for m in orders:
            prod *= m
        if prod <= 64:
            return orders


def random_plain_word(rng: random.Random, n: int, max_order: int = 3) -> WickWord:
    """A plain product of n fields at distinct nonzero points: singleton groups."""
    avoid: set = set()
    orders = random_orders(rng, n, max_order)
    return WickWord.plain(
        *((m, rational_point(rng, avoid=avoid)) for m in orders)
    )


def random_wick_word(
    rng: random.Random,
    n: int,
    max_order: int = 3,
    max_group: int = 3,
) -> WickWord:
    """A Wick word with n insertions split into random groups, all points
    distinct and nonzero (so the expectation of its singleton-group expansion
    is defined)."""
    avoid: set = set()
    orders = random_orders(rng, n, max_order)
    groups = []
    i = 0
    while i < len(orders):
        size = rng.randint(1, min(max_group, len(orders) - i))
        groups.append(
            WickGroup(
                tuple(
                    Insertion(m, rational_point(rng, avoid=avoid))
                    for m in orders[i : i + size]
                )
            )
        )
        i += size
    return WickWord(tuple(groups))


def random_state_group(rng: random.Random, arity: int) -> WickGroup:
    """A single Wick group of orders 1 to 3 with distinct nonzero points in the disc."""
    avoid: set = set()
    return WickGroup(
        tuple(
            Insertion(rng.randint(1, 3), rational_point(rng, avoid=avoid))
            for _ in range(arity)
        )
    )


def random_fock_vector(rng: random.Random, max_level: int = 10) -> FockVector:
    """A random exact-coefficient vector of up to 3 terms, with modes <= 6
    and basis levels <= max_level."""
    terms = {}
    for _ in range(3):
        occ: dict[int, int] = {}
        level = 0
        while True:
            m = rng.randint(1, 6)
            if level + m > max_level or rng.random() < 0.35:
                break
            occ[m] = occ.get(m, 0) + 1
            level += m
        coeff = scalars.rational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        if coeff:
            idx = FockIndex.of(occ)
            terms[idx] = terms.get(idx, scalars.ZERO) + coeff
    v = FockVector(terms)
    return v or FockVector.vacuum()


def partition_multisets(total: int) -> list[tuple[int, ...]]:
    """All order multisets with sum <= total, the empty one included."""
    out: list[tuple[int, ...]] = []

    def rec(smallest: int, left: int, acc: tuple[int, ...]):
        out.append(acc)
        for m in range(smallest, left + 1):
            rec(m, left - m, acc + (m,))

    rec(1, total, ())
    return out
