"""Reflection inner product, Gram matrices, and positivity checks.

States are symbol expressions (combinations of Wick words with points in the
open unit disc); the inner product is (F, G) = <theta(F) G>, anti-linear in
F, and theta is never expanded: a pair of basis words is one hafnian over
the left and right insertions with weights conj(C), C and the derivative
pair factor of (1/2)(1 - conj(z) w)^{-2}, all exact and entire in the disc,
so origin points are allowed on both sides.  ``inner`` is the one entry
point; it holds one ``KernelTable`` per call and ``gram`` one for the whole
matrix.  A ``StateExpression`` checks its words once, when it is built:
points in the disc, no ``WickWord.coincidence``, orders within MAX_ORDER.
The pair factor is in closed form (the tests keep a symbolic
differentiator as its reference), and ``verify`` and the tests keep the
theta route as the reference.  Vectors are never quotiented; equality in
the Hilbert space is decided through Gram computations: ``gram`` builds
the matrix and ``psd_check`` its one frozen ``GramReport``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import scalars
from .algebra import LinearCombination, WickGroup, WickWord, check_orders
from .correlator import KernelTable
from .errors import DomainError, StructuralError
from .pairing import hafnian
from .scalars import Scalar, conjugate

_MODULE = "hilbert"


@dataclass(frozen=True)
class StateExpression:
    """A Hilbert-space vector presented as a combination of Wick words.

    Invariants: every point lies in the open unit disc (zero allowed), no
    word has a ``WickWord.coincidence`` (points are distinct across its
    groups), so expectations are defined, and no order exceeds MAX_ORDER.
    """

    combo: LinearCombination

    def __post_init__(self):
        if not isinstance(self.combo, LinearCombination):
            raise DomainError(_MODULE, "states are combinations of Wick words")
        orders = []
        for word in self.combo.words():
            for group in word.groups:
                for ins in group.insertions:
                    if not scalars.in_unit_disc(ins.point):
                        raise DomainError(
                            _MODULE, f"state point {ins.point!r} is not in the open unit disc"
                        )
                    orders.append(ins.order)
            if (pole := word.coincidence()) is not None:
                raise DomainError(
                    _MODULE, f"state has coinciding points across groups: {pole[0].point!r}"
                )
        check_orders(orders, _MODULE)


def as_state(F) -> StateExpression:
    """Coerce a group, word, or combination into a StateExpression."""
    if isinstance(F, StateExpression):
        return F
    if isinstance(F, WickGroup):
        F = WickWord.single_group(F)
    if isinstance(F, WickWord):
        F = LinearCombination.of(F)
    if isinstance(F, LinearCombination):
        return StateExpression(F)
    raise DomainError(_MODULE, f"cannot interpret {type(F).__name__} as a state")


# ---------------------------------------------------------------------------
# Inner product of basis words
# ---------------------------------------------------------------------------

def _pair_series_eval(m: int, ell: int, u: Scalar, w: Scalar) -> Scalar:
    """The pair factor for orders (m, ell) at u = conj(z_left), w = z_right:
    d^(m-1)/du^(m-1) d^(ell-1)/dw^(ell-1) of (1/2)(1 - u w)^(-2), by Leibniz

        (1/2) sum_{i < min(m, ell)} C(m-1, i) (ell-1)!/(ell-1-i)! (m+ell-1-i)!
              u^(ell-1-i) w^(m-1-i) (1 - u w)^(-(m+ell-i)),

    summed from the top i down over running powers of one inverse of 1 - u w.
    At an origin point (u = 0 or w = 0) only the top term i = min(m, ell) - 1
    can survive, and 1 - u w = 1.  For u = 0 it is
    (1/2) C(m-1, ell-1) (ell-1)! m! w^(m-ell) when ell <= m and 0 otherwise;
    w = 0 is the mirror case.  That term is returned as it stands.

    Precondition: |u|, |w| < 1, so |u w| < 1.  ``inner`` is the only route
    here, and a ``StateExpression`` keeps every point in the open unit disc.
    """
    uw = u * w
    k = min(m, ell)
    if scalars.is_zero(u) or scalars.is_zero(w):
        top = math.comb(m - 1, k - 1) * math.perm(ell - 1, k - 1) * math.factorial(m + ell - k)
        return Fraction(top, 2) * u ** (ell - k) * w ** (m - k)
    exact = isinstance(uw, scalars.Exact)
    base = scalars.one_scalar(exact) - uw
    inv = base.inverse() if exact else 1 / base
    up, wp, ip = u ** (ell - k), w ** (m - k), inv ** (m + ell - k + 1)
    total = scalars.zero_scalar(exact)
    for i in reversed(range(k)):
        c = math.comb(m - 1, i) * math.perm(ell - 1, i) * math.factorial(m + ell - 1 - i)
        total = total + Fraction(c, 2) * up * wp * ip
        if i:
            up, wp, ip = up * u, wp * w, ip * inv
    return total


def _word_pair(wF: WickWord, wG: WickWord, kernels: KernelTable) -> Scalar:
    """(wF, wG) = <theta(wF) wG> as one hafnian over both words' insertions.

    Slots are labelled (side, group), so ``hafnian`` pairs no two
    insertions of one group.  A left-left pair weighs conj(C), a right-right
    pair C, both read from ``kernels``; a left-right pair weighs the series
    pair factor at (conj(z_left), z_right).
    """
    slots = [
        (side, gid, ins)
        for side, word in enumerate((wF, wG))
        for gid, group in enumerate(word.groups)
        for ins in group.insertions
    ]
    exact = wF.is_exact() and wG.is_exact()

    def weight(i: int, j: int) -> Scalar:
        # left slots come first, so a mixed pair has i on the left
        side_i, _, a = slots[i]
        side_j, _, b = slots[j]
        if side_i != side_j:
            return _pair_series_eval(a.order, b.order, conjugate(a.point), b.point)
        c = kernels(a.order, a.point, b.order, b.point)
        return conjugate(c) if side_i == 0 else c

    labels = [(side, gid) for side, gid, _ in slots]
    return hafnian(
        weight, labels, (1,) * len(slots), scalars.one_scalar(exact), scalars.zero_scalar(exact)
    )


def inner(F, G) -> Scalar:
    """The reflection inner product (F, G) = <theta(F) G>, anti-linear in F.

    Sum over pairs of basis words of conj(c_F) c_G times the word pair's
    hafnian; origin points are allowed on both sides.
    """
    return _inner(as_state(F), as_state(G), KernelTable())


def _inner(F: StateExpression, G: StateExpression, kernels: KernelTable) -> Scalar:
    total: Scalar = scalars.ZERO
    for wF, cF in F.combo.items():
        for wG, cG in G.combo.items():
            total = total + conjugate(cF) * cG * _word_pair(wF, wG, kernels)
    return total


# ---------------------------------------------------------------------------
# Gram matrices and positivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramReport:
    """Inner-product matrix of a state list plus positivity diagnostics."""

    matrix: tuple[tuple[Scalar, ...], ...]
    min_eigenvalue: float
    hermiticity_defect: float
    psd: bool
    tol: float
    witness: Optional[tuple[complex, ...]] = None

    @property
    def size(self) -> int:
        return len(self.matrix)


def gram(states: Sequence, tol: float = 1e-10) -> GramReport:
    """Gram matrix G[i][j] = inner(s_i, s_j) with eigenvalue diagnostics.

    The full matrix is computed entry by entry (no Hermitian shortcut) so the
    reported hermiticity defect is an actual cross-check; on the exact
    backend it is exactly zero.  One ``KernelTable`` serves all n^2 entries.
    """
    sts = [as_state(s) for s in states]
    kernels = KernelTable()
    matrix = tuple(tuple(_inner(a, b, kernels) for b in sts) for a in sts)
    return psd_check(matrix, tol)


def psd_check(matrix: tuple[tuple[Scalar, ...], ...], tol: float) -> GramReport:
    """The report of a square matrix: psd iff min eigenvalue >= -tol *
    spectral norm, with the eigenvector of the min eigenvalue as the witness
    when it is not.  The empty matrix is psd.

    Raises StructuralError when the matrix is not Hermitian beyond tol.
    """
    if not matrix:
        return GramReport(matrix, 0.0, 0.0, True, tol)
    m = np.array([[complex(v) for v in row] for row in matrix], dtype=complex)
    defect = float(np.max(np.abs(m - m.conj().T)))
    scale = float(np.max(np.abs(m))) or 1.0
    if defect > tol * scale:
        raise StructuralError(
            _MODULE, f"matrix is not Hermitian: defect {defect:.3e} exceeds tolerance"
        )
    herm = (m + m.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(herm)
    min_eig = float(eigvals[0])
    norm = float(max(abs(eigvals[0]), abs(eigvals[-1])))
    verdict = min_eig >= -tol * norm
    witness = None if verdict else tuple(complex(x) for x in eigvecs[:, 0])
    return GramReport(matrix, min_eig, defect, verdict, tol, witness)
