"""Pair kernel, the pairing sum over words, and expectation values.

Expectations are Gaussian: a word's expectation is the sum over perfect
matchings of its insertions of the product of pair kernels

    C(m1, z1, m2, z2) = (1/2) (m1+m2-1)! (-1)^{m1} / (z1 - z2)^{m1+m2},

with matchings restricted to cross-group pairs (pairings inside a
normal-ordered group are suppressed).  A plain product of fields is the
word of singleton groups, so every pair of its insertions is allowed.
``pair_sum`` is the one pairing sum over words, the reflection pairing
(F, G) = <theta(F) G> with theta never expanded: one ``pairing.hafnian``
per pair of words, in which the equal insertions of a group are copies of
one slot when both words are exact, and a float word keeps one slot per
insertion.  ``expect_combo``, the one expectation entry point, is
its case <F> = (1, F), and ``hilbert.inner`` and ``gram`` call it on
states.  The tests keep an enumeration of the matchings one by one as its
reference.

Every kernel comes from a ``KernelTable`` that its caller holds for one
computation.  It keeps one value (1/2)(n-1)!/(z1 - z2)^n per ordered pair
of exact points and order sum n = m1 + m2, built in one integer frame:
z1 - z2 = D/d with a Gaussian integer D, running integer powers of
d conj(D) and |D|^2, and one division at the end.  The words of one
combination share their point pairs, and order pairs with one sum share a
value.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import groupby

from . import scalars
from .algebra import Insertion, LinearCombination, WickGroup, WickWord, as_combination
from .algebra import check_orders, check_point
from .errors import DomainError, PoleError
from .pairing import hafnian
from .scalars import Scalar

_MODULE = "correlator"

UNIT = LinearCombination.of(WickWord.unit())


class KernelTable:
    """The pair kernels C(m1, z1, m2, z2) of one computation, each order sum
    evaluated once per ordered point pair.

    C is (1/2)(n - 1)!/(z1 - z2)^n with n = m1 + m2, negated for odd m1, and
    the table keeps that value by (z1, z2, n).  For exact Gaussian-rational
    points it writes z1 - z2 = D/d with a Gaussian integer D and an integer
    d > 0, and holds the running integer powers of d conj(D) and of
    N = |D|^2: the value at n is (n - 1)! (d conj(D))^n / (2 N^n), one
    division at the end (``scalars.from_frame``).  An exact point must be a
    Gaussian rational (``algebra.check_point``), checked once per point pair
    when its run is started.  A pair with a float point takes the complex
    arithmetic of a fresh evaluation, unmemoised; when (n - 1)!/2,
    (z1 - z2)^n or their quotient leaves float range, the exact kernel at
    the float difference is rounded once instead, its run of powers kept
    like an exact pair's, at the points (difference, 0).  A float kernel
    that does not round to a finite nonzero float raises OverflowError.  A
    table lives for one computation (a combination, an ``inner`` or
    ``gram`` call, a ``wick_expand``, an amplitude entry, one HS trace
    sweep); nothing is kept across calls.

    Raises DomainError for orders that are not integers >= 1 and for an exact
    point with a radical part, ResourceError for an order above MAX_ORDER
    and PoleError for coinciding points, exact or as complex numbers.
    """

    __slots__ = ("_values", "_runs")

    def __init__(self):
        self._values: dict = {}  # (z1, z2, n) -> (1/2)(n - 1)!/(z1 - z2)^n
        self._runs: dict = {}  # (z1, z2) -> [(d conj(D))^k / N^k as (re, im, den), k = 0, 1, ...]

    def __call__(self, m1: int, z1, m2: int, z2) -> Scalar:
        if not (isinstance(m1, int) and isinstance(m2, int)) or m1 < 1 or m2 < 1:
            raise DomainError(_MODULE, f"kernel orders must be integers >= 1, got {m1!r}, {m2!r}")
        check_orders((m1, m2), _MODULE)
        z1 = scalars.as_scalar(z1)
        z2 = scalars.as_scalar(z2)
        n = m1 + m2
        if not (isinstance(z1, scalars.Exact) and isinstance(z2, scalars.Exact)):
            if complex(z1) == complex(z2):
                raise PoleError(_MODULE, ((m1, z1), (m2, z2)))
            sign = -1 if m1 % 2 else 1
            diff = z1 - z2
            try:
                value = complex(Fraction(math.factorial(n - 1) * sign, 2)) / diff ** n
            except (OverflowError, ZeroDivisionError):
                value = 0j
            if not (value and cmath.isfinite(value)) and cmath.isfinite(diff):
                # a factor left float range: round once the exact kernel at
                # the float difference, the kernel at the points (diff, 0)
                exact = scalars.rational(Fraction(diff.real), Fraction(diff.imag))
                try:
                    value = complex(sign * self._unsigned(m1, exact, m2, scalars.ZERO))
                except OverflowError:
                    value = 0j
            if not (value and cmath.isfinite(value)):
                raise OverflowError(f"the kernel at {z1!r}, {z2!r} is beyond float range")
            return value
        key = (z1, z2, n)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self._unsigned(m1, z1, m2, z2)
        return -value if m1 % 2 else value

    def _unsigned(self, m1: int, z1: scalars.Exact, m2: int, z2: scalars.Exact) -> scalars.Exact:
        """(1/2)(n - 1)!/(z1 - z2)^n with n = m1 + m2, for exact Gaussian-rational points."""
        n = m1 + m2
        run = self._runs.get((z1, z2))
        if run is None:
            check_point(z1, _MODULE)
            check_point(z2, _MODULE)
            diff = z1 - z2
            if not diff:
                raise PoleError(_MODULE, ((m1, z1), (m2, z2)))
            re, im, d = scalars.to_frame(diff)
            run = self._runs[(z1, z2)] = [(1, 0, 1), (d * re, -d * im, re * re + im * im)]
        step_re, step_im, step_den = run[1]
        while len(run) <= n:
            re, im, den = run[-1]
            run.append((re * step_re - im * step_im, re * step_im + im * step_re, den * step_den))
        re, im, den = run[n]
        f = math.factorial(n - 1)
        return scalars.from_frame(f * re, f * im, 2 * den)


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

    Precondition: |u|, |w| < 1, so |u w| < 1.  Only ``hilbert.inner`` and
    ``hilbert.gram`` reach it (``expect_combo``'s left word is empty), and
    a ``StateExpression`` keeps every point in the open unit disc.
    """
    uw = u * w
    k = min(m, ell)
    if not u or not w:
        # the loop below gives the same value, but this branch more than halves
        # the time of verify's all-origin dictionary suite (0.05-0.09 s against
        # 0.17-0.18 s in 7-run minima on a 2-vCPU Xeon, Python 3.11)
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
    insertions of one group.  When both words are exact, the equal
    insertions of a group (adjacent, as a group holds them in key order) are
    one slot with their number of copies; a float word keeps one slot per
    insertion, so its sum adds the same products in the same order.  A
    left-left pair weighs conj(C), a right-right pair C, both read from
    ``kernels``; a left-right pair weighs the series pair factor at
    (conj(z_left), z_right).
    """
    exact = wF.is_exact() and wG.is_exact()
    slots, counts = [], []
    for side, word in enumerate((wF, wG)):
        for gid, group in enumerate(word.groups):
            if exact:
                runs = [(ins, len(list(copies))) for ins, copies in groupby(group.insertions)]
            else:
                runs = [(ins, 1) for ins in group.insertions]
            for ins, copies in runs:
                slots.append((side, gid, ins))
                counts.append(copies)

    def weight(i: int, j: int) -> Scalar:
        # left slots come first, so a mixed pair has i on the left
        side_i, _, a = slots[i]
        side_j, _, b = slots[j]
        if side_i != side_j:
            return _pair_series_eval(a.order, b.order, a.point.conjugate(), b.point)
        c = kernels(a.order, a.point, b.order, b.point)
        return c.conjugate() if side_i == 0 else c

    labels = [(side, gid) for side, gid, _ in slots]
    return hafnian(weight, labels, counts, scalars.zero_scalar(exact))


def pair_sum(F: LinearCombination, G: LinearCombination, kernels: KernelTable) -> Scalar:
    """(F, G) = <theta(F) G>, the ``scalars.total`` over word pairs of
    conj(c_F) c_G times ``_word_pair``; the empty sum is exact zero."""
    left = [(wF, cF.conjugate()) for wF, cF in F.items()]
    terms = (cF * cG * _word_pair(wF, wG, kernels) for wF, cF in left for wG, cG in G.items())
    return scalars.total(terms, scalars.ZERO)


def expect_combo(F) -> Scalar:
    """Expectation of a group, a word or a combination, <F> = (1, F).

    A word's expectation is its cross-group pairing sum.  Points may
    coincide inside one group (those pairings are suppressed) but not
    across groups: ``WickWord.coincidence`` names the first such pair, and
    PoleError reports it for the first word that has one, before any word
    is evaluated.  A lone non-empty group has expectation zero; the empty
    word has expectation one.  Each word's sum is the hafnian of its
    kernel table with same-group pairs forbidden, each allowed kernel
    evaluated once; ``pairing.matching_count`` counts its matchings.

    One ``KernelTable`` serves every word, so a point pair shared by the
    words (as in a theta or Wick expansion) is evaluated once per order pair.
    A coefficient c enters as conj(1) c: (1+0j) c for a float c.
    """
    F = as_combination(F, _MODULE)
    for word in F.words():
        if (pole := word.coincidence()) is not None:
            a, b = pole
            raise PoleError(_MODULE, ((a.order, a.point), (b.order, b.point)))
    return pair_sum(UNIT, F, KernelTable())


def mobius_check(W: WickWord, coeffs) -> tuple[Scalar, Scalar]:
    """Covariance data for a fractional-linear map w = (a z + b)/(c z + d).

    For a word with all orders equal to 1, returns the pair

        (expect(W),  expect(W after z -> w) * prod_i dw/dz(z_i))

    whose equality expresses that the two-point structure transforms as a
    one-form in each insertion.  The map keeps every insertion in its group.
    An exact coefficient must be a Gaussian rational (``algebra.check_point``),
    as an exact point must.
    """
    if not isinstance(W, WickWord):
        raise DomainError(_MODULE, f"mobius_check expects a WickWord, got {type(W).__name__}")
    if any(ins.order != 1 for g in W.groups for ins in g.insertions):
        raise DomainError(_MODULE, "mobius_check is defined for words with all orders equal to 1")
    a, b, c, d = (scalars.as_scalar(x) for x in coeffs)
    for x in (a, b, c, d):
        check_point(x, _MODULE)
    det = a * d - b * c
    if not det:
        raise DomainError(_MODULE, "degenerate map: a d - b c = 0")
    jacobian: Scalar = scalars.one_scalar(W.is_exact())
    image = []
    for group in W.groups:
        moved = []
        for ins in group.insertions:
            denom = c * ins.point + d
            if not denom:
                raise DomainError(_MODULE, f"map pole: c z + d = 0 at z = {ins.point!r}")
            moved.append(Insertion(1, (a * ins.point + b) / denom))
            jacobian = jacobian * det / denom ** 2
        image.append(WickGroup(tuple(moved)))
    return expect_combo(W), expect_combo(WickWord(tuple(image))) * jacobian
