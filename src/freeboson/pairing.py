"""The one pairing engine: hafnians of slot-weight tables with multiplicities.

Every Gaussian quantity in the package is a sum over perfect matchings of
insertions of a product of pair weights.  Insertions are grouped into slots
of equal data; slot i holds counts[i] interchangeable copies.  The sum is
organised as a dynamic program over remaining-count vectors (the standard
treatment of hafnians with repeated rows): the first occupied slot gives up
one copy and pairs with each allowed partner slot k, and because the copies
of k are interchangeable that pairing is counted reduced[k] times.  With all
counts 1 the states are the subsets of unmatched insertions.
``matching_count`` runs the same DP on a 0/1 table to count matchings.
"""
from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .errors import ResourceError

_MODULE = "pairing"

# Largest number of count-vector states, prod(c_i + 1), the DP may visit.
MAX_STATES = 1 << 20


def matchable(sizes: Sequence[int]) -> bool:
    """Whether groups of these sizes admit a perfect matching with no pair
    inside a group: iff the total is even and no group holds more than half
    of it.  Callers of ``hafnian`` that forbid same-group pairs ask first."""
    total = sum(sizes)
    return total % 2 == 0 and 2 * max(sizes, default=0) <= total


def matching_count(sizes: Sequence[int]) -> int:
    """The number of perfect matchings of groups of these sizes with no pair
    inside a group: the hafnian of the 0/1 table, one slot per group."""
    return hafnian(lambda i, j: None if i == j else 1, sizes, 1, 0)


def hafnian(
    weight: Callable[[int, int], Optional[object]],
    counts: Sequence[int],
    one,
    zero,
):
    """Sum over perfect matchings of the multiset ``counts`` of weight products.

    ``weight(i, j)`` gives the symmetric pair weight of slots i <= j, or None
    for a forbidden pair; it is called once per pair that can occur, after the
    cost guard.  Returns ``one`` for nothing left to pair and ``zero`` when no
    perfect matching exists.  Raises ResourceError when the state bound
    prod(c_i + 1) exceeds MAX_STATES.
    """
    counts = tuple(counts)
    bound = math.prod(c + 1 for c in counts)
    if bound > MAX_STATES:
        raise ResourceError(
            _MODULE, f"pairing DP bound {bound} states exceeds the guard {MAX_STATES}"
        )
    size = len(counts)
    table: list[list] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            if counts[i] and counts[j] and (i < j or counts[i] > 1):
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

    return rec(counts)
