"""Reflection inner product, Gram matrices, and positivity checks.

States are symbol expressions (combinations of Wick words with points in the
open unit disc); the inner product is (F, G) = <theta(F) G>, anti-linear in
F.  For single Wick groups there is an independent closed-form oracle: the
pairing sum of derivatives of (1/2)(1 - conj(z) w)^{-2}, evaluated with exact
rational coefficients.  Vectors are never quotiented; equality in the
Hilbert space is decided through Gram computations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import scalars
from .algebra import LinearCombination, PlainWord, WickGroup, WickWord, theta
from .correlator import expect_combo
from .errors import DomainError, StructuralError
from .pairing import hafnian
from .scalars import Scalar, conjugate, is_zero

_MODULE = "hilbert"


def _in_unit_disc(z: Scalar) -> bool:
    a = scalars.abs_sq(z)
    if isinstance(a, scalars.Exact) and a.is_rational():
        return a.rational() < 1
    return scalars.to_complex(a).real < 1.0


@dataclass(frozen=True)
class StateExpression:
    """A Hilbert-space vector presented as a combination of Wick words.

    Invariants: every point lies in the open unit disc (zero allowed), and
    points are distinct across the groups of each word so expectations are
    defined.  ``zero_free`` records whether the reflection route is available
    when the state is used as a left argument.
    """

    combo: LinearCombination
    zero_free: bool = field(init=False)

    def __post_init__(self):
        zero_free = True
        for word, _ in self.combo.items():
            if not isinstance(word, WickWord):
                raise DomainError(_MODULE, "states are combinations of Wick words")
            seen_cross: dict = {}
            for gid, group in enumerate(word.groups):
                for ins in group.insertions:
                    if not _in_unit_disc(ins.point):
                        raise DomainError(
                            _MODULE, f"state point {ins.point!r} is not in the open unit disc"
                        )
                    if is_zero(ins.point):
                        zero_free = False
                    key = scalars.sort_key(ins.point)
                    if key in seen_cross and seen_cross[key] != gid:
                        raise DomainError(
                            _MODULE,
                            f"state has coinciding points across groups: {ins.point!r}",
                        )
                    seen_cross[key] = gid
        object.__setattr__(self, "zero_free", zero_free)


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
# Closed-form single-group inner product
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pair_series(j: int, k: int) -> tuple[tuple[int, int, int, Fraction], ...]:
    """d^j/du^j d^k/dw^k of (1/2)(1 - u w)^{-2} as sum c * u^p w^q (1-u w)^{-e}.

    Returned as (p, q, e, c) tuples; differentiation stays inside this family
    so the coefficients are exact rationals.
    """
    terms: dict[tuple[int, int, int], Fraction] = {(0, 0, 2): Fraction(1, 2)}

    def diff(terms, wrt_u: bool):
        out: dict[tuple[int, int, int], Fraction] = {}

        def add(key, val):
            if key in out:
                val = out[key] + val
            if val:
                out[key] = val
            elif key in out:
                del out[key]

        for (p, q, e), c in terms.items():
            if wrt_u:
                if p:
                    add((p - 1, q, e), c * p)
                add((p, q + 1, e + 1), c * e)
            else:
                if q:
                    add((p, q - 1, e), c * q)
                add((p + 1, q, e + 1), c * e)
        return out

    for _ in range(j):
        terms = diff(terms, wrt_u=True)
    for _ in range(k):
        terms = diff(terms, wrt_u=False)
    return tuple((p, q, e, c) for (p, q, e), c in sorted(terms.items()))


def _pair_series_eval(m: int, ell: int, u: Scalar, w: Scalar) -> Scalar:
    """The pair factor for orders (m, ell) at u = conj(z_left), w = z_right."""
    uw = u * w
    a = scalars.abs_sq(uw)
    inside = (
        a.rational() < 1
        if isinstance(a, scalars.Exact) and a.is_rational()
        else scalars.to_complex(a).real < 1.0
    )
    if not inside:
        raise DomainError(_MODULE, f"series pair factor needs |conj(z) w| < 1, got {uw!r}")
    exact = isinstance(uw, scalars.Exact)
    one = scalars.one_scalar(exact)
    base = one - uw if exact else complex(1, 0) - uw
    total = scalars.zero_scalar(exact)
    for p, q, e, c in _pair_series(m - 1, ell - 1):
        term = scalars.as_scalar(c) * u ** p * w ** q * base ** (-e)
        total = total + term
    return total


def disc_series_inner(left: WickGroup, right: WickGroup) -> Scalar:
    """Closed-form inner product of two single Wick groups.

    Sum over bijections between the groups' insertions of the derivative
    pair factors; zero when the arities differ.  Entire in the points, so
    origin points are allowed on both sides.  Groups of more than 10
    insertions exceed the pairing engine's state guard (ResourceError).
    """
    if not isinstance(left, WickGroup) or not isinstance(right, WickGroup):
        raise DomainError(_MODULE, "disc_series_inner expects two WickGroups")
    exact = all(scalars.is_exact(i.point) for i in left.insertions) and all(
        scalars.is_exact(i.point) for i in right.insertions
    )
    if len(left) != len(right):
        return scalars.zero_scalar(exact)
    # the permanent as the hafnian of [[0, A], [A^T, 0]]: slots 0..n-1 are
    # the left insertions, n..2n-1 the right ones
    n = len(left)
    ins = left.insertions + right.insertions

    def weight(i: int, j: int) -> Optional[Scalar]:
        if (i < n) == (j < n):
            return None
        a, b = ins[i], ins[j]
        return _pair_series_eval(a.order, b.order, conjugate(a.point), b.point)

    return hafnian(
        weight, (1,) * (2 * n), scalars.one_scalar(exact), scalars.zero_scalar(exact)
    )


def _single_group_pairing(wF: WickWord, wG: WickWord) -> Scalar:
    """Inner product of basis words via the series route (single groups only)."""
    if len(wF.groups) > 1 or len(wG.groups) > 1:
        raise DomainError(
            _MODULE,
            "left argument has a point at the origin: the reflection route is "
            "unavailable and the series fallback covers single-group words only",
        )
    if not wF.groups and not wG.groups:
        return scalars.ONE
    if not wF.groups or not wG.groups:
        # <vacuum, :G:> = <:G:> = 0 for a lone non-empty group
        return scalars.ZERO
    return disc_series_inner(wF.groups[0], wG.groups[0])


def inner(F, G) -> Scalar:
    """The reflection inner product (F, G) = <theta(F) G>, anti-linear in F.

    When the left argument is zero-free this is evaluated literally through
    the reflection; origin points on the left are handled by the closed-form
    series for single-group words (where the product is entire).
    """
    F = as_state(F)
    G = as_state(G)
    if F.zero_free:
        return expect_combo(theta(F.combo) * G.combo)
    total: Scalar = scalars.ZERO
    started = False
    for wF, cF in F.combo.items():
        for wG, cG in G.combo.items():
            term = conjugate(cF) * cG * _single_group_pairing(wF, wG)
            total = term if not started else total + term
            started = True
    return total if started else scalars.ZERO


# ---------------------------------------------------------------------------
# Gram matrices and positivity
# ---------------------------------------------------------------------------

@dataclass
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


def _float_matrix(matrix) -> np.ndarray:
    n = len(matrix)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = scalars.to_complex(matrix[i][j])
    return out


def gram(states: Sequence, tol: float = 1e-10) -> GramReport:
    """Gram matrix G[i][j] = inner(s_i, s_j) with eigenvalue diagnostics.

    The full matrix is computed entry by entry (no Hermitian shortcut) so the
    reported hermiticity defect is an actual cross-check; on the exact
    backend it is exactly zero.
    """
    sts = [as_state(s) for s in states]
    n = len(sts)
    matrix = tuple(
        tuple(inner(sts[i], sts[j]) for j in range(n)) for i in range(n)
    )
    report = GramReport(
        matrix=matrix, min_eigenvalue=0.0, hermiticity_defect=0.0, psd=True, tol=tol
    )
    psd_check(report, tol)
    return report


def psd_check(report: GramReport, tol: float) -> bool:
    """True iff min eigenvalue >= -tol * spectral norm; records a witness.

    Raises StructuralError when the matrix is not Hermitian beyond tol.
    """
    n = report.size
    if n == 0:
        report.min_eigenvalue = 0.0
        report.hermiticity_defect = 0.0
        report.psd = True
        report.tol = tol
        report.witness = None
        return True
    m = _float_matrix(report.matrix)
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
    report.min_eigenvalue = min_eig
    report.hermiticity_defect = defect
    report.psd = verdict
    report.tol = tol
    report.witness = None if verdict else tuple(complex(x) for x in eigvecs[:, 0])
    return verdict
