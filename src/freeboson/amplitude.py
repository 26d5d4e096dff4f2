"""Multi-disc transition amplitudes and truncated Hilbert-Schmidt sums.

A configuration is r >= 2 pairwise disjoint discs, each given by an affine
parametrization z -> a_j + q_j z of the unit disc (radius |q_j|).  The
amplitude entry on occupation indices places, for each disc j, n^j_m
insertions of order m at the center a_j, weighted by the orthonormal-basis
prefactor prod_m (n^j_m!)^{-1/2} (i sqrt(2m)/m!)^{n^j_m} and the
parametrization power prod_m q_j^{m n^j_m}, and evaluates the cross-disc
pairing sum.  Insertions at one disc are heavily degenerate, so the
pairing sum is ``pairing.hafnian`` over (disc, order) slots with the
occupation counts as multiplicities and same-disc pairs forbidden, rather
than a sum over all (n-1)!! matchings.  An entry with no cross-disc perfect
matching (``pairing.matchable``) is zero before its prefactor is built.

When the separation satisfies d/R > 4 sqrt(r), the squared entries are
summable and bounded by the closed form 1/(1 - x) with
x = (r/4) * (8R^2/d^2)/(1 - 8R^2/d^2).
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from . import scalars
from .correlator import kernel
from .errors import ConfigurationError, RegimeError, RegimeWarning, ResourceError
from .fock import FockIndex, FockVector
from .pairing import hafnian, matchable
from .scalars import I, Scalar, as_scalar, conjugate, is_zero, real_value, root

_MODULE = "amplitude"


@dataclass(frozen=True)
class Disc:
    """A parametrized disc: center a, scale q != 0, radius |q|."""

    center: Scalar
    q: Scalar

    def __post_init__(self):
        object.__setattr__(self, "center", as_scalar(self.center))
        object.__setattr__(self, "q", as_scalar(self.q))
        if is_zero(self.q):
            raise ConfigurationError(_MODULE, "disc scale q must be nonzero")

    def radius_sq(self) -> Scalar:
        return scalars.abs_sq(self.q)

    def radius(self) -> float:
        return math.sqrt(float(real_value(self.radius_sq())))


@dataclass(frozen=True)
class DiscConfiguration:
    """r >= 2 pairwise disjoint discs with derived separation statistics.

    d^2 = min over pairs of |a_i - a_j|^2 (center separation) and
    R^2 = max radius squared are kept in squared form so the disjointness
    and regime tests are exact on rational data:

        disjoint:   t = |a_i-a_j|^2 - R_i^2 - R_j^2 > 0  and  t^2 > 4 R_i^2 R_j^2
        HS regime:  d^2 > 16 r R^2   (equivalent to d/R > 4 sqrt(r))
    """

    discs: tuple[Disc, ...]

    def __post_init__(self):
        if len(self.discs) < 2:
            raise ConfigurationError(_MODULE, "a configuration needs at least two discs")
        for i in range(len(self.discs)):
            for j in range(i + 1, len(self.discs)):
                a = self.discs[i]
                b = self.discs[j]
                gap = real_value(scalars.abs_sq(a.center - b.center))
                ra = real_value(a.radius_sq())
                rb = real_value(b.radius_sq())
                t = gap - ra - rb
                if not (t > 0 and t * t > 4 * ra * rb):
                    raise ConfigurationError(
                        _MODULE, f"discs {i} and {j} are not disjoint"
                    )

    @property
    def r(self) -> int:
        return len(self.discs)

    def is_exact(self) -> bool:
        return all(
            scalars.is_exact(d.center) and scalars.is_exact(d.q) for d in self.discs
        )

    def center_gap_sq(self) -> Fraction | float:
        return min(
            real_value(scalars.abs_sq(self.discs[i].center - self.discs[j].center))
            for i in range(self.r)
            for j in range(i + 1, self.r)
        )

    def max_radius_sq(self) -> Fraction | float:
        return max(real_value(d.radius_sq()) for d in self.discs)

    def hs_regime(self) -> bool:
        return self.center_gap_sq() > 16 * self.r * self.max_radius_sq()


def _as_index(x) -> FockIndex:
    if isinstance(x, FockIndex):
        return x
    return FockIndex.of(x)


class _EntryEvaluator:
    """Shared kernel cache plus the per-entry pairing sum."""

    def __init__(self, config: DiscConfiguration):
        self.config = config
        self.exact = config.is_exact()
        self._kernels: dict[tuple[int, int, int, int], Scalar] = {}

    def _kernel(self, i: int, mi: int, j: int, mj: int) -> Scalar:
        key = (i, mi, j, mj)
        val = self._kernels.get(key)
        if val is None:
            val = kernel(mi, self.config.discs[i].center, mj, self.config.discs[j].center)
            self._kernels[key] = val
            self._kernels[(j, mj, i, mi)] = val
        return val

    def entry(self, indices: Sequence[FockIndex]) -> Scalar:
        config = self.config
        if len(indices) != config.r:
            raise ConfigurationError(
                _MODULE,
                f"expected {config.r} occupation indices, got {len(indices)}",
            )
        if not matchable([idx.particles() for idx in indices]):
            return scalars.zero_scalar(self.exact)

        prefactor: Scalar = scalars.ONE
        qpow: Scalar = scalars.one_scalar(self.exact)
        slots: list[tuple[int, int]] = []
        counts: list[int] = []
        for j, idx in enumerate(indices):
            q = config.discs[j].q
            for m, n in idx.occupations:
                base = I * root(2 * m) * Fraction(1, math.factorial(m))
                prefactor = prefactor * root(Fraction(1, math.factorial(n))) * base ** n
                qpow = qpow * q ** (m * n)
                slots.append((j, m))
                counts.append(n)

        def weight(a: int, b: int) -> Scalar | None:
            (disc_a, m_a), (disc_b, m_b) = slots[a], slots[b]
            return None if disc_a == disc_b else self._kernel(disc_a, m_a, disc_b, m_b)

        exact = self.exact
        pairing = hafnian(weight, counts, scalars.one_scalar(exact), scalars.zero_scalar(exact))
        return prefactor * qpow * pairing


def amplitude_entry(config: DiscConfiguration, indices: Sequence) -> Scalar:
    """One amplitude tensor entry on a tuple of occupation indices.

    Zero whenever no cross-disc perfect matching exists (an odd total, or
    one disc holding more than half of the insertions); exact on rational
    disc data, with values in the radical-extended exact ring.
    """
    return _EntryEvaluator(config).entry([_as_index(x) for x in indices])


def amplitude_apply(config: DiscConfiguration, vectors: Sequence[FockVector]) -> Scalar:
    """Multilinear extension of the entry tensor to finite vectors."""
    if len(vectors) != config.r:
        raise ConfigurationError(
            _MODULE, f"expected {config.r} vectors, got {len(vectors)}"
        )
    evaluator = _EntryEvaluator(config)
    total: Scalar = scalars.zero_scalar(evaluator.exact)

    def rec(slot: int, indices: list[FockIndex], coeff: Scalar):
        nonlocal total
        if slot == len(vectors):
            total = total + coeff * evaluator.entry(indices)
            return
        for idx, c in sorted(vectors[slot].items(), key=lambda t: t[0].occupations):
            rec(slot + 1, indices + [idx], coeff * c)

    rec(0, [], scalars.one_scalar(evaluator.exact))
    return total


@dataclass(frozen=True)
class HSPartial:
    """Cumulative squared-entry sum through one total-insertion level."""

    total_insertions: int
    tuple_count: int
    partial_sum: Scalar


def hs_truncated(
    config: DiscConfiguration,
    M: int,
    N: int,
    max_tuples: int = 100_000,
) -> list[HSPartial]:
    """Cumulative sums of |entry|^2 over all index tuples with modes <= M
    and total particle count <= N, grouped by total insertion count.

    Rows are ordered by total insertion count with tuples enumerated
    lexicographically inside each level, so the sequence is reproducible
    bit for bit.  Outside the summability regime a RegimeWarning is issued
    (the amplitude is still defined; only the bound is unavailable).
    """
    if not isinstance(M, int) or M < 1:
        raise ConfigurationError(_MODULE, f"max mode M must be an integer >= 1, got {M!r}")
    if not isinstance(N, int) or N < 0:
        raise ConfigurationError(_MODULE, f"particle cap N must be an integer >= 0, got {N!r}")
    if not config.hs_regime():
        warnings.warn(
            "disc separation is outside the summability regime d/R > 4*sqrt(r); "
            "partial sums are computed but unbounded in principle",
            RegimeWarning,
            stacklevel=2,
        )
    r = config.r
    # tuples through level t number comb(r*M + t, t): the count vectors of the
    # r*M (disc, mode) slots with total <= t.  Checked level by level before
    # anything is built, so a huge truncation stops at the first level over.
    for t in range(N + 1):
        visited = math.comb(r * M + t, t)
        if visited > max_tuples:
            raise ResourceError(
                _MODULE,
                f"enumeration would visit {visited} tuples through {t} insertions, "
                f"above the guard {max_tuples}",
            )

    modes = range(1, M + 1)
    by_particles = {
        p: sorted(
            (FockIndex.of(Counter(c)) for c in combinations_with_replacement(modes, p)),
            key=lambda idx: idx.occupations,
        )
        for p in range(N + 1)
    }

    def tuples_of_total(t: int) -> Iterable[tuple[FockIndex, ...]]:
        def rec(slot: int, left: int, acc: tuple[FockIndex, ...]):
            if slot == r - 1:
                for idx in by_particles[left]:
                    yield acc + (idx,)
                return
            for p in range(left + 1):
                for idx in by_particles[p]:
                    yield from rec(slot + 1, left - p, acc + (idx,))

        yield from rec(0, t, ())

    evaluator = _EntryEvaluator(config)
    rows: list[HSPartial] = []
    running: Scalar = scalars.zero_scalar(evaluator.exact)
    seen = 0
    for t in range(N + 1):
        level = list(tuples_of_total(t))
        level.sort(key=lambda tup: tuple(idx.occupations for idx in tup))
        for tup in level:
            value = evaluator.entry(list(tup))
            running = running + value * conjugate(value)
        seen += len(level)
        rows.append(HSPartial(total_insertions=t, tuple_count=seen, partial_sum=running))
    return rows


def hs_bound(config: DiscConfiguration) -> Scalar:
    """The closed-form bound 1/(1-x), x = (r/4) * (8R^2/d^2)/(1 - 8R^2/d^2).

    Requires the strict regime d/R > 4 sqrt(r); otherwise raises RegimeError
    carrying the offending ratio.
    """
    d_sq = config.center_gap_sq()
    r_sq = config.max_radius_sq()
    r = config.r
    if not d_sq > 16 * r * r_sq:
        ratio = math.sqrt(float(d_sq) / float(r_sq))
        raise RegimeError(_MODULE, ratio, 4.0 * math.sqrt(r))
    y = 8 * r_sq / d_sq
    s = y / (1 - y)
    x = Fraction(r, 4) * s if isinstance(s, Fraction) else r * s / 4
    bound = 1 / (1 - x)
    if isinstance(bound, Fraction):
        return scalars.rational(bound)
    return complex(bound, 0.0)
