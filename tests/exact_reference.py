"""The exact ring Q(i)[sqrt(s) : s squarefree]: finite sums
sum_s (a_s + i b_s) sqrt(s) with rational a_s, b_s, closed under division.

The reference that the tests check ``scalars.Exact`` against.  The package
type holds one radical per value, c sqrt(s); this ring holds any number of
them, with a general term-by-term product and an inverse that strips the
radicals one prime at a time.  On single-radical values the two must agree
term for term, in hash and in repr; the tests also run here the
multi-radical identities that the package no longer represents.
``of`` and ``to_package`` convert between the two types.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt as _fsqrt

from freeboson import scalars


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return n


class Exact:
    """An element of Q(i) adjoined square roots of squarefree integers.

    Stored as a sorted tuple of (s, re, im) triples meaning
    sum (re + i*im) * sqrt(s); s = 1 carries the Gaussian-rational part.
    The form is canonical: terms sorted, coefficients of type Fraction, zero
    terms dropped (zero is the empty tuple), so equality compares the tuples.
    Instances are immutable and hashable; the hash is computed once.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        norm = []
        if terms:
            for s, (re, im) in terms.items():
                re = Fraction(re)
                im = Fraction(im)
                if re or im:
                    norm.append((int(s), re, im))
        norm.sort()
        self._terms = tuple(norm)

    @classmethod
    def _raw(cls, terms: tuple) -> "Exact":
        obj = cls.__new__(cls)
        obj._terms = terms
        return obj

    # -- structure queries ------------------------------------------------

    @property
    def terms(self) -> tuple:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_gaussian(self) -> bool:
        """True when the value lies in Q(i) (no radical part)."""
        # terms are sorted by s >= 1, so only a lone s = 1 term is Gaussian
        terms = self._terms
        return not terms or (len(terms) == 1 and terms[0][0] == 1)

    def is_rational(self) -> bool:
        return self.is_gaussian() and all(im == 0 for _, _, im in self._terms)

    def gaussian(self) -> tuple[Fraction, Fraction]:
        if not self.is_gaussian():
            raise ValueError(f"not a Gaussian rational: {self!r}")
        if not self._terms:
            return Fraction(0), Fraction(0)
        _, re, im = self._terms[0]
        return re, im

    def rational(self) -> Fraction:
        re, im = self.gaussian()
        if im:
            raise ValueError(f"not rational: {self!r}")
        return re

    def conjugate(self) -> "Exact":
        return Exact._raw(tuple((s, re, -im) for s, re, im in self._terms))

    def real_part(self) -> "Exact":
        return Exact._raw(tuple((s, re, Fraction(0)) for s, re, im in self._terms if re))

    def imag_part(self) -> "Exact":
        """The imaginary part, as a real element (the b in a + ib)."""
        return Exact._raw(tuple((s, im, Fraction(0)) for s, re, im in self._terms if im))

    def abs_sq(self) -> "Exact":
        return self * self.conjugate()

    # -- arithmetic -------------------------------------------------------

    def _add_exact(self, other: "Exact", sign: int) -> "Exact":
        x = self._terms
        y = other._terms
        if not y:
            return self
        if not x:
            return other if sign == 1 else -other
        if len(x) == 1 and len(y) == 1 and x[0][0] == 1 and y[0][0] == 1:
            _, a, b = x[0]
            _, c, d = y[0]
            if sign == 1:
                return _gaussian(a + c, b + d)
            return _gaussian(a - c, b - d)
        acc = {s: (re, im) for s, re, im in self._terms}
        for s, re, im in other._terms:
            a, b = acc.get(s, (Fraction(0), Fraction(0)))
            acc[s] = (a + sign * re, b + sign * im)
        return Exact({s: v for s, v in acc.items()})

    def __add__(self, other):
        if isinstance(other, Exact):
            return self._add_exact(other, 1)
        if isinstance(other, (int, Fraction)):
            return self._add_exact(rational(other), 1)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Exact):
            return self._add_exact(other, -1)
        if isinstance(other, (int, Fraction)):
            return self._add_exact(rational(other), -1)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Exact._raw(tuple((s, -re, -im) for s, re, im in self._terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            f = Fraction(other)
            return Exact._raw(tuple((s, re * f, im * f) for s, re, im in self._terms))
        if isinstance(other, Exact):
            x = self._terms
            y = other._terms
            if not x or not y:
                return ZERO
            if len(x) == 1 and len(y) == 1 and x[0][0] == 1 and y[0][0] == 1:
                _, a, b = x[0]
                _, c, d = y[0]
                return _gaussian(a * c - b * d, a * d + b * c)
            acc: dict[int, tuple[Fraction, Fraction]] = {}
            for s, a, b in self._terms:
                for t, c, d in other._terms:
                    g = gcd(s, t)
                    u = (s // g) * (t // g)
                    re = (a * c - b * d) * g
                    im = (a * d + b * c) * g
                    pa, pb = acc.get(u, (Fraction(0), Fraction(0)))
                    acc[u] = (pa + re, pb + im)
            return Exact(acc)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        if not self._terms:
            raise ZeroDivisionError("division by exact zero")
        if len(self._terms) == 1 and self._terms[0][0] == 1:
            _, a, b = self._terms[0]
            r = a * a + b * b
            return Exact._raw(((1, a / r, -b / r),))
        num = ONE
        den = self
        # Strip radicals one prime at a time: multiplying by the conjugate
        # that flips every term containing p removes p from the support.
        while True:
            p = None
            for s, _, _ in den._terms:
                if s > 1:
                    p = _smallest_prime_factor(s)
                    break
            if p is None:
                break
            keep = {}
            flip = {}
            for s, re, im in den._terms:
                (flip if s % p == 0 else keep)[s] = (re, im)
            conj = Exact(keep) - Exact(flip)
            num = num * conj
            den = den * conj
        a, b = den.gaussian()
        r = a * a + b * b
        return num * Exact({1: (a / r, -b / r)})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * rational(other).inverse()
        if isinstance(other, Exact):
            return self * other.inverse()
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.inverse()
        if isinstance(other, (int, Fraction, Exact)):
            return inv * other
        if isinstance(other, (float, complex)):
            return other * complex(inv)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons / conversions ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, Exact):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == rational(other)._terms
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        if self.is_rational():
            h = hash(self.rational())
        else:
            h = hash(self._terms)
        self._hash = h
        return h

    def __bool__(self):
        return bool(self._terms)

    def __complex__(self):
        re = 0.0
        im = 0.0
        for s, a, b in self._terms:
            w = _fsqrt(s)
            re += float(a) * w
            im += float(b) * w
        return complex(re, im)

    def __repr__(self):
        if not self._terms:
            return "Exact(0)"
        parts = []
        for s, re, im in self._terms:
            root_txt = "" if s == 1 else f"*sqrt({s})"
            if im == 0:
                parts.append(f"({re}){root_txt}")
            elif re == 0:
                parts.append(f"({im}j){root_txt}")
            else:
                parts.append(f"({re}+{im}j){root_txt}")
        return "Exact(" + " + ".join(parts) + ")"


def _gaussian(re: Fraction, im: Fraction) -> Exact:
    """The canonical Exact for re + i*im, from Fraction parts."""
    if re or im:
        return Exact._raw(((1, re, im),))
    return ZERO


ZERO = Exact()
ONE = Exact({1: (1, 0)})
I = Exact({1: (0, 1)})


def rational(re, im=0) -> Exact:
    """Exact Gaussian rational re + i*im."""
    return Exact({1: (Fraction(re), Fraction(im))})


def of(x) -> Exact:
    """The reference value of a package scalar, int or Fraction."""
    if isinstance(x, scalars.Exact):
        return Exact._raw(((x.s, x.re, x.im),) if x else ())
    return rational(x)


def root(x) -> Exact:
    """The exact square root of a nonnegative rational (``scalars.root``)."""
    return of(scalars.root(x))


def to_package(x: Exact) -> scalars.Exact:
    """The package value of a reference value with at most one radical."""
    if not x.terms:
        return scalars.ZERO
    ((s, re, im),) = x.terms
    return scalars.rational(re, im) * scalars.root(s)


def fraction_product(x: scalars.Exact, y: scalars.Exact) -> scalars.Exact:
    """x * y of two package values by the Fraction route the package used
    before it formed products from integer numerators and denominators:
    four Fraction products and two Fraction sums, then the radicand rule
    sqrt(s) sqrt(t) = g sqrt((s/g)(t/g)) with g = gcd(s, t).  The oracle
    for ``scalars.Exact.__mul__`` on two exact values."""
    if y is scalars.ONE:
        return x
    if x is scalars.ONE:
        return y
    s, t = x.s, y.s
    if not s or not t:
        return scalars.ZERO
    a, b, c, d = x.re, x.im, y.re, y.im
    re = a * c - b * d
    im = a * d + b * c
    if s == 1 or t == 1:
        return scalars._make(s * t, re, im)
    g = gcd(s, t)
    return scalars._make((s // g) * (t // g), re * g, im * g)


def fraction_inverse(x: scalars.Exact) -> scalars.Exact:
    """1/x of a package value by the Fraction route the package used before
    it formed inverses over the frame of x: conj(c) sqrt(s) / (|c|^2 s) from
    Fraction products, a sum and two quotients.  The oracle for
    ``scalars.Exact.inverse``."""
    s = x.s
    if not s:
        raise ZeroDivisionError("division by exact zero")
    a, b = x.re, x.im
    r = (a * a + b * b) * s
    return scalars._make(s, a / r, -b / r)
