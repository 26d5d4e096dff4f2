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
bits.  A float result that is not finite is valued once more on weights
scaled by powers of two, so a DP whose states pass float range on the way
to a finite value still answers; a finite result is valued once.
``matching_count`` runs the same DP on an all-ones table to count matchings.
"""
from __future__ import annotations

import cmath
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
    MAX_STATES.  A complex result that is not finite is valued once more on
    rescaled weights (``_rescaled``), and comes back not finite only when
    that valuation is out of range too.
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
    # one level (one pair) at a time.  A state is its first occupied slot
    # and its moves: that slot gives up one copy to each differently
    # labelled occupied slot k, k ascending, as (copies of k left, k, index
    # of the state after the pair on the next level); a dead end has none
    levels: list[list] = []
    level = (counts,)
    for _ in range(total // 2):
        below: dict = {}
        level_states: list = []
        for state in level:
            first = next(i for i, c in enumerate(state) if c)
            moves = []
            reduced = list(state)
            reduced[first] -= 1
            row = table[first]
            for k, c in enumerate(reduced):
                if c and row[k] is not None:
                    sub = reduced.copy()
                    sub[k] -= 1
                    moves.append((c, k, below.setdefault(tuple(sub), len(below))))
            level_states.append((first, moves))
        levels.append(level_states)
        level = below
    result = _value(levels, table, zero)
    if isinstance(result, complex) and not cmath.isfinite(result):
        rescued = _rescaled(levels, table, counts, zero)
        return result if rescued is None else rescued
    return result


def _value(levels, table, zero):
    """The DP's value, bottom-up from the empty state (the one state of the
    last level) one level at a time, with the weights of ``table``."""
    values = [zero + 1]
    for level_states in reversed(levels):
        above = []
        for first, moves in level_states:
            row = table[first]
            above.append(scalars.total(
                (c * (row[k] * values[j]) if c > 1 else row[k] * values[j] for c, k, j in moves), zero
            ))
        values = above
    return values[0]


def _rescaled(levels, table, counts, zero):
    """A float hafnian that is not finite, valued once more on the weights
    w_ij 2^(e_i + e_j), with e_i near -1/2 log2 of slot i's largest weight
    part, and scaled back by 2^(-sum c_i e_i).  Each matching uses slot i
    c_i times, so wherever the values stay normal each product is the same
    product exactly scaled.  None when the result is still not finite."""
    exps = []
    for row in table:
        largest = max((max(abs(w.real), abs(w.imag)) for w in row if w is not None), default=0.0)
        exps.append(-(math.frexp(largest)[1] // 2))
    scaled = [
        [None if w is None else complex(math.ldexp(w.real, e + f), math.ldexp(w.imag, e + f))
         for w, f in zip(row, exps)]
        for row, e in zip(table, exps)
    ]
    value = _value(levels, scaled, zero)
    shift = -sum(c * e for c, e in zip(counts, exps))
    try:
        value = complex(math.ldexp(value.real, shift), math.ldexp(value.imag, shift))
    except OverflowError:
        return None
    return value if cmath.isfinite(value) else None
