"""The one pairing engine: hafnians of labelled slots with multiplicities.

Every Gaussian quantity in the package is a sum over perfect matchings of
insertions of a product of pair weights, with no pair inside a group (a
Wick group, a side-and-group of a word pair, a disc).  Insertions are
grouped into slots of equal data; slot i holds counts[i] interchangeable
copies and carries the label of its group, and two copies with equal labels
are never paired.  The sum is organised as a dynamic program over
remaining-count vectors (the standard treatment of hafnians with repeated
rows): the first occupied slot gives up one copy and pairs with each
differently labelled slot k, and because the copies of k are
interchangeable that pairing is counted reduced[k] times.  With all counts
1 the states are the subsets of unmatched insertions.  ``matching_count``
runs the same DP on an all-ones table to count matchings.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Hashable, Sequence

from .errors import ResourceError, count_text

_MODULE = "pairing"

# Largest number of count-vector states, prod(c_i + 1), the DP may visit.
MAX_STATES = 1 << 20


def matching_count(sizes: Sequence[int]) -> int:
    """The number of perfect matchings of groups of these sizes with no pair
    inside a group: the all-ones hafnian, one slot and one label per group."""
    return hafnian(lambda i, j: 1, range(len(sizes)), sizes, 1, 0)


def hafnian(
    weight: Callable[[int, int], object],
    labels: Sequence[Hashable],
    counts: Sequence[int],
    one,
    zero,
):
    """Sum over perfect matchings of the multiset ``counts`` of weight
    products, pairs of equal labels excluded.

    Returns ``zero`` when no such matching exists (an odd total, or one
    label holding more than half of it), before the cost guard and before
    any weight is asked for; ``one`` for nothing left to pair.  Otherwise
    ``weight(i, j)`` gives the symmetric pair weight of occupied slots
    i < j with different labels, once per pair, after the guard.  Raises
    ResourceError when the state bound prod(c_i + 1) exceeds MAX_STATES.
    """
    labels = tuple(labels)
    counts = tuple(counts)
    per_label: Counter = Counter()
    for label, c in zip(labels, counts):
        per_label[label] += c
    total = sum(counts)
    if total % 2 or 2 * max(per_label.values(), default=0) > total:
        return zero
    bound = math.prod(c + 1 for c in counts)
    if bound > MAX_STATES:
        raise ResourceError(
            _MODULE, f"pairing DP bound {count_text(bound)} states exceeds the guard {MAX_STATES}"
        )
    size = len(counts)
    table: list[list] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if counts[i] and counts[j] and labels[i] != labels[j]:
                table[i][j] = table[j][i] = weight(i, j)
    memo = {(0,) * size: one}

    def rec(state: tuple[int, ...]):
        cached = memo.get(state)
        if cached is not None:
            return cached
        first = next(i for i, c in enumerate(state) if c)
        reduced = list(state)
        reduced[first] -= 1
        row = table[first]
        total = None
        for k, c in enumerate(reduced):
            w = row[k]
            if not c or w is None:
                continue
            sub = reduced.copy()
            sub[k] -= 1
            term = w * rec(tuple(sub))
            if c > 1:
                term = c * term
            total = term if total is None else total + term
        memo[state] = zero if total is None else total
        return memo[state]

    try:
        return rec(counts)
    finally:
        # rec holds itself through its closure: break that cycle so the memo
        # is freed on return rather than by the cyclic collector
        del rec
