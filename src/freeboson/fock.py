"""Occupation-number states, ladder operators, and the Wick dictionary.

Basis states are indexed by finitely supported occupation sequences {n_m};
the state is alpha_{-m1}...alpha_{-mn} applied to the vacuum, with squared
norm prod_m n_m! m^{n_m}; a vector is an algebra.Combination over them.
The Wick dictionary bridges this picture to the symbol algebra: at the
origin, :prod_m [m,0]^{n_m}: corresponds to the basis monomial with
coefficient prod_m ((m-1)!/(sqrt(2) i))^{n_m}.

The series expansion of a Wick group at general points in the unit disc and
the contour-integral realisation of the ladder action are independent
routes to the same modes; they live in the tests (``tests/fock_reference.py``)
as the references this module is checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import scalars
from .algebra import Combination, add_term, check_orders
from .errors import DomainError
from .scalars import I, Scalar, root

_MODULE = "fock"

# 1/(sqrt(2) i) = -i sqrt(2)/2: the per-field dictionary factor
INV_SQRT2_I = (root(2) * I).inverse()


@dataclass(frozen=True)
class FockIndex:
    """Occupation sequence {n_m}, stored as sorted (mode, count) pairs."""

    occupations: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        cleaned = []
        for m, n in self.occupations:
            if not isinstance(m, int) or m < 1:
                raise DomainError(_MODULE, f"mode must be an integer >= 1, got {m!r}")
            if not isinstance(n, int) or n < 0:
                raise DomainError(_MODULE, f"occupation count must be an integer >= 0, got {n!r}")
            if n:
                cleaned.append((m, n))
        cleaned.sort()
        for i in range(1, len(cleaned)):
            if cleaned[i][0] == cleaned[i - 1][0]:
                raise DomainError(_MODULE, f"repeated mode {cleaned[i][0]} in occupation list")
        object.__setattr__(self, "occupations", tuple(cleaned))

    @classmethod
    def of(cls, occupations: Mapping[int, int]) -> "FockIndex":
        return cls(tuple(occupations.items()))

    def count(self, m: int) -> int:
        for mode, n in self.occupations:
            if mode == m:
                return n
        return 0

    def norm_sq(self) -> int:
        out = 1
        for m, n in self.occupations:
            out *= math.factorial(n) * m ** n
        return out

    def raised(self, m: int) -> "FockIndex":
        occ = dict(self.occupations)
        occ[m] = occ.get(m, 0) + 1
        return FockIndex.of(occ)

    def lowered(self, m: int) -> "FockIndex | None":
        occ = dict(self.occupations)
        if occ.get(m, 0) < 1:
            return None
        occ[m] -= 1
        return FockIndex.of(occ)


class FockVector(Combination):
    """Finitely supported combination of occupation indices."""

    __slots__ = ()
    key_type = FockIndex

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls({FockIndex(): scalars.ONE})

    def __repr__(self):
        if not self._terms:
            return "FockVector(0)"
        parts = [
            f"{c!r} * {dict(idx.occupations)!r}"
            for idx, c in sorted(self._terms.items(), key=lambda t: t[0].occupations)
        ]
        return "FockVector(" + " + ".join(parts) + ")"


def ladder(v: FockVector, m: int) -> FockVector:
    """alpha_m: creation for m < 0, annihilation with weight m*n_m for m > 0.

    alpha_0 is the zero operator.  Raises ResourceError for |m| above
    MAX_ORDER.
    """
    if not isinstance(v, FockVector):
        raise DomainError(_MODULE, f"ladder expects a FockVector, got {type(v).__name__}")
    if not isinstance(m, int):
        raise DomainError(_MODULE, f"ladder mode must be an integer, got {m!r}")
    check_orders((abs(m),), _MODULE)
    acc: dict[FockIndex, Scalar] = {}
    for idx, coeff in v.items():
        if m < 0:
            add_term(acc, idx.raised(-m), coeff)
        elif m > 0 and (n := idx.count(m)):
            add_term(acc, idx.lowered(m), coeff * (m * n))
    return FockVector._of_terms(acc)


def fock_inner(v: FockVector, w: FockVector) -> Scalar:
    """Sesquilinear inner product, anti-linear in the first argument: the
    ``scalars.total`` of conj(c_v) c_w prod n_m! m^{n_m} over the (orthogonal)
    basis indices of both vectors; exact zero when they share none."""
    terms = (cv.conjugate() * cw * idx.norm_sq() for idx, cv in v.items() if (cw := w.coeff(idx)))
    return scalars.total(terms, scalars.ZERO)


def wick_origin_to_fock(orders: Iterable[int]) -> FockVector:
    """The vector of :prod_m [m,0]^{n_m}: in the occupation basis, for the
    multiset of orders m, each counted n_m times.

    Inverting alpha_{-m}^{n_m} applied to the vacuum =
    (sqrt(2) i/(m-1)!)^{n_m} times the normal-ordered state gives the
    coefficient prod_m ((m-1)!/(sqrt(2) i))^{n_m}; the empty multiset is the
    vacuum.  Raises DomainError for an order below 1 and ResourceError for
    an order above MAX_ORDER.
    """
    counts: dict[int, int] = {}
    for m in orders:
        m = int(m)
        if m < 1:
            raise DomainError(_MODULE, f"order must be >= 1, got {m}")
        counts[m] = counts.get(m, 0) + 1
    check_orders(counts.keys(), _MODULE)
    coeff: Scalar = scalars.ONE
    for m, n in counts.items():
        coeff = coeff * (INV_SQRT2_I * math.factorial(m - 1)) ** n
    return FockVector({FockIndex.of(counts): coeff})
