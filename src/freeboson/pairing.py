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
interchangeable that pairing is counted reduced[k] times.  The reachable
states are collected one pair at a time, total/2 levels in all, and valued
bottom-up from the empty product ``zero + 1``, so the depth of the DP takes
no stack; each state's sum is ``scalars.total`` over its moves.  With all
counts 1 the states are the subsets of unmatched insertions.  A word pair
of exact points (``correlator``) passes the equal insertions of a group as
copies of one slot, so the norm of :[1, 0]^n: visits n + 1 states, not
2^n, under a guard bound of (n + 1)^2, not 4^n; a word with a float point
keeps one slot per insertion, so its float sums keep their order and their
bits.
``matching_count`` runs the same DP on an all-ones table to count matchings.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Hashable, Sequence

from . import scalars
from .errors import ResourceError, integer_text

_MODULE = "pairing"

# Largest number of count-vector states, prod(c_i + 1), the DP may visit.
MAX_STATES = 1 << 20


def matching_count(sizes: Sequence[int]) -> int:
    """The number of perfect matchings of groups of these sizes with no pair
    inside a group: the all-ones hafnian, one slot and one label per group."""
    return hafnian(lambda i, j: 1, range(len(sizes)), sizes, 0)


def hafnian(
    weight: Callable[[int, int], object],
    labels: Sequence[Hashable],
    counts: Sequence[int],
    zero,
):
    """Sum over perfect matchings of the multiset ``counts`` of weight
    products, pairs of equal labels excluded.

    Returns ``zero`` when no such matching exists (an odd total, or one
    label holding more than half of it), before the cost guard and before
    any weight is asked for; the empty product ``zero + 1`` for nothing left
    to pair.  Otherwise ``weight(i, j)`` gives the symmetric pair weight of
    occupied slots i < j with different labels, once per pair, after the
    guard.  Raises ResourceError when the state bound prod(c_i + 1) exceeds
    MAX_STATES.
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
            _MODULE, f"pairing DP bound {integer_text(bound)} states exceeds the guard {MAX_STATES}"
        )
    size = len(counts)
    table: list[list] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if counts[i] and counts[j] and labels[i] != labels[j]:
                table[i][j] = table[j][i] = weight(i, j)
    # the states reachable from counts under the first-occupied-slot rule,
    # one level (one pair) at a time.  A state's moves: its first occupied
    # slot gives up one copy to each differently labelled occupied slot k,
    # k ascending, as (copies of k left, weight, index of the state after
    # the pair on the next level); a dead end has none
    moves_of: list[list] = []
    level = (counts,)
    for _ in range(total // 2):
        below: dict = {}
        level_moves: list = []
        for state in level:
            first = next(i for i, c in enumerate(state) if c)
            moves = []
            reduced = list(state)
            reduced[first] -= 1
            row = table[first]
            for k, c in enumerate(reduced):
                w = row[k]
                if c and w is not None:
                    sub = reduced.copy()
                    sub[k] -= 1
                    moves.append((c, w, below.setdefault(tuple(sub), len(below))))
            level_moves.append(moves)
        moves_of.append(level_moves)
        level = below
    # valued bottom-up from the empty state, one level at a time
    values = [zero + 1] * len(level)
    for level_moves in reversed(moves_of):
        values = [
            scalars.total((c * (w * values[j]) if c > 1 else w * values[j] for c, w, j in moves), zero)
            for moves in level_moves
        ]
    return values[0]
