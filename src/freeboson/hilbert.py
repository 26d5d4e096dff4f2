"""Reflection inner product, Gram matrices, and positivity checks.

States are symbol expressions (combinations of Wick words with points in the
open unit disc); the inner product (F, G) = <theta(F) G>, anti-linear in F,
is ``correlator.pair_sum``, which never expands theta: its weights are
exact and entire in the disc, so origin points are allowed on both sides.
``inner`` is the one entry point; it holds one ``KernelTable`` per call and
``gram`` one for the whole matrix, which ``scalars.hermitian`` fills: an
exact entry below the diagonal is the conjugate of its mirror.  A
``StateExpression`` checks its words once, when it is built: points in the
disc, no ``WickWord.coincidence``, orders within MAX_ORDER.  ``verify`` and
the tests keep the theta route as the reference.  Vectors are never
quotiented; equality in the Hilbert space is decided through Gram
computations: ``gram`` builds the matrix and ``psd_check`` its one frozen
``GramReport``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import scalars
from .algebra import LinearCombination, as_combination, check_orders
from .correlator import KernelTable, pair_sum
from .errors import DomainError, StructuralError
from .scalars import Scalar

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
    """F as a StateExpression: a state as it is, a group, word or combination
    checked as one (``algebra.as_combination``)."""
    if isinstance(F, StateExpression):
        return F
    return StateExpression(as_combination(F, _MODULE))


def inner(F, G) -> Scalar:
    """The reflection inner product (F, G) = <theta(F) G>, anti-linear in F.

    Sum over pairs of basis words of conj(c_F) c_G times the word pair's
    hafnian (``correlator.pair_sum``); origin points are allowed on both
    sides.  That ``scalars.total`` keeps a lone float -0.0 part; added to
    exact zero here, it becomes +0.0.
    """
    return scalars.ZERO + pair_sum(as_state(F).combo, as_state(G).combo, KernelTable())


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

    Each entry is ``correlator.pair_sum``, with one ``KernelTable`` for the
    whole matrix, filled by ``scalars.hermitian``: (G, F) = conj((F, G)) is
    an identity of the pairing sum, so the exact matrix is Hermitian by
    construction and its defect is 0, and float mode computes all n^2
    entries and measures it.  The type of the value decides, not that of
    the points: a float coefficient on exact points gives float entries.
    """
    combos = [as_state(s).combo for s in states]
    kernels = KernelTable()
    # each entry starts from exact zero, as ``inner`` does
    matrix = scalars.hermitian(
        len(combos), lambda i, j: scalars.ZERO + pair_sum(combos[i], combos[j], kernels)
    )
    return psd_check(tuple(map(tuple, matrix)), tol)


def psd_check(matrix: tuple[tuple[Scalar, ...], ...], tol: float) -> GramReport:
    """The report of a square matrix: psd iff min eigenvalue >= -tol *
    spectral norm, with the eigenvector of the min eigenvalue as the witness
    when it is not.  The empty matrix is psd.

    Raises StructuralError when the matrix is not Hermitian beyond tol, and
    OverflowError when an exact entry is beyond float range.
    """
    if not matrix:
        return GramReport(matrix, 0.0, 0.0, True, tol)
    try:
        m = np.array([[complex(v) for v in row] for row in matrix], dtype=complex)
    except OverflowError:
        raise OverflowError("an entry of the matrix is beyond float range") from None
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
