"""Dual-backend complex scalars.

The exact backend holds the values c sqrt(s): a Gaussian rational c times
the square root of one squarefree integer s >= 1.  Gaussian rationals are
the s = 1 values.  Square roots enter only through normalization prefactors
like 1/sqrt(n!) and i*sqrt(2m)/m!, one per amplitude entry or Fock basis
coefficient, so every exact number the engine reports has this form and
every identity can be tested with zero rounding.  Products and inverses
stay in the type; sums add values with one radicand, and a sum of two
radicands raises StructuralError.  The general ring Q(i)[sqrt(s), ...]
lives in the tests as the reference this type is checked against.

The float backend is the builtin ``complex``.  Mixed-backend arithmetic
promotes to float; exact-with-exact stays exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt as _fsqrt
from typing import Union

from .errors import DomainError, ResourceError, StructuralError

_MODULE = "scalars"

RationalLike = Union[int, Fraction]


# Trial division in ``root`` runs over the divisors below this bound.
TRIAL_BOUND = 1 << 16


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (k, s) with n = k*k*s and s squarefree, for n >= 1.

    Trial division stops at TRIAL_BOUND.  A cofactor left below
    TRIAL_BOUND^2 is 1 or a prime; a larger one has no prime factor below the
    bound and is accepted only as a perfect square.  Any other would need a
    factorisation, and raises ResourceError.
    """
    k, s = 1, 1
    m = n
    d = 2
    while d * d <= m:
        if d >= TRIAL_BOUND:
            r = isqrt(m)
            if r * r != m:
                raise ResourceError(
                    _MODULE,
                    f"square root needs a factorisation: a {m.bit_length()}-bit cofactor "
                    f"has no factor below {TRIAL_BOUND} and is not a square",
                )
            return k * r, s
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    return k, s * m


class Exact:
    """A Gaussian rational times one square root: c sqrt(s), with c = re + i*im
    of rational parts and s a squarefree integer >= 1.

    Stored as the tuple of at most one (s, re, im) triple, with Fraction
    parts; s = 1 is a Gaussian rational and zero is the empty tuple.  The
    form is canonical, so equality compares the tuples.  A sum of nonzero
    values with two radicands, such as sqrt(2) + 1, or a dict of two nonzero
    radicands raises StructuralError.  Instances are immutable and hashable;
    the hash is computed once.
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
        if len(norm) > 1:
            radicands = [s for s, _, _ in norm]
            raise StructuralError(_MODULE, f"one radicand per exact value, got {radicands}")
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
        return not self._terms or self._terms[0][0] == 1

    def is_rational(self) -> bool:
        return not self._terms or (self._terms[0][0] == 1 and not self._terms[0][2])

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

    def abs_sq(self) -> "Exact":
        return self * self.conjugate()

    # -- arithmetic -------------------------------------------------------

    def _add_exact(self, other: "Exact", sign: int) -> "Exact":
        y = other._terms
        if not y:
            return self
        x = self._terms
        if not x:
            return other if sign == 1 else -other
        s, a, b = x[0]
        t, c, d = y[0]
        if s != t:
            raise StructuralError(_MODULE, f"sum of two radicands: {self!r} and {other!r}")
        re, im = (a + c, b + d) if sign == 1 else (a - c, b - d)
        return Exact._raw(((s, re, im),)) if re or im else ZERO

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
            if not self._terms or not other._terms:
                return ZERO
            s, a, b = self._terms[0]
            t, c, d = other._terms[0]
            re = a * c - b * d
            im = a * d + b * c
            if s == 1 or t == 1:
                return Exact._raw(((s * t, re, im),))
            # sqrt(s) sqrt(t) = g sqrt((s/g)(t/g)) with g = gcd(s, t)
            g = gcd(s, t)
            return Exact._raw((((s // g) * (t // g), re * g, im * g),))
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        """1/(c sqrt(s)) = conj(c) sqrt(s) / (|c|^2 s)."""
        if not self._terms:
            raise ZeroDivisionError("division by exact zero")
        s, a, b = self._terms[0]
        r = (a * a + b * b) * s
        return Exact._raw(((s, a / r, -b / r),))
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
        if not self._terms:
            return 0j
        s, a, b = self._terms[0]
        w = _fsqrt(s)
        return complex(float(a) * w, float(b) * w)

    def __repr__(self):
        if not self._terms:
            return "Exact(0)"
        s, re, im = self._terms[0]
        root_txt = "" if s == 1 else f"*sqrt({s})"
        if im == 0:
            return f"Exact(({re}){root_txt})"
        if re == 0:
            return f"Exact(({im}j){root_txt})"
        return f"Exact(({re}+{im}j){root_txt})"


def to_frame(x) -> tuple[int, int, int] | None:
    """(re, im, den) with x = (re + i*im)/den, integers, den > 0 the least
    common denominator of the two parts; None unless x is an exact Gaussian
    rational.  ``from_frame`` is its inverse."""
    if not (isinstance(x, Exact) and x.is_gaussian()):
        return None
    if not x._terms:
        return 0, 0, 1
    _, re, im = x._terms[0]
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def from_frame(re: int, im: int, den: int) -> Exact:
    """The canonical Exact of (re + i*im)/den, for integers re, im and den > 0."""
    if re or im:
        return Exact._raw(((1, Fraction(re, den), Fraction(im, den)),))
    return ZERO


ZERO = Exact()
ONE = Exact({1: (1, 0)})
I = Exact({1: (0, 1)})

Scalar = Union[Exact, complex]


def rational(re: RationalLike, im: RationalLike = 0) -> Exact:
    """Exact Gaussian rational re + i*im."""
    return Exact({1: (Fraction(re), Fraction(im))})


def root(x: RationalLike) -> Exact:
    """Exact square root of a nonnegative rational.

    Raises ResourceError when numerator times denominator keeps, after trial
    division below TRIAL_BOUND, a cofactor that is neither below
    TRIAL_BOUND^2 nor a perfect square.
    """
    f = Fraction(x)
    if f < 0:
        raise DomainError(_MODULE, f"square root of negative rational {f}")
    if f == 0:
        return ZERO
    n = f.numerator * f.denominator
    k, s = _squarefree_split(n)
    return Exact({s: (Fraction(k, f.denominator), 0)})


def as_scalar(x) -> Scalar:
    """Coerce to a backend value: exact for int/Fraction/Exact, complex else."""
    if isinstance(x, Exact):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    if isinstance(x, (float, complex)):
        return complex(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def is_exact(x) -> bool:
    return isinstance(x, Exact)


def is_zero(x) -> bool:
    if isinstance(x, Exact):
        return x.is_zero()
    return x == 0


def conjugate(x: Scalar) -> Scalar:
    if isinstance(x, Exact):
        return x.conjugate()
    return complex(x).conjugate()


def to_complex(x) -> complex:
    return complex(x)


def abs_sq(x: Scalar) -> Scalar:
    """x * conj(x); real, exact on the exact backend."""
    if isinstance(x, Exact):
        return x.abs_sq()
    x = complex(x)
    return complex(x.real * x.real + x.imag * x.imag, 0.0)


def in_unit_disc(z: Scalar) -> bool:
    """|z| < 1, decided exactly for an exact z, whose |z|^2 is rational."""
    if isinstance(z, Exact):
        return z.abs_sq().rational() < 1
    return abs_sq(z).real < 1.0


def real_value(x) -> Union[Fraction, float]:
    """The real number a scalar represents; exact Fraction when rational.

    Raises ValueError for values with a nonzero imaginary part.  Exact values
    with a radical part come back as floats (only comparisons need them).
    """
    if isinstance(x, Exact):
        if not x.terms:
            return Fraction(0)
        s, re, im = x.terms[0]
        if im:
            raise ValueError(f"not a real value: {x!r}")
        return re if s == 1 else float(re) * _fsqrt(s)
    x = complex(x)
    if x.imag != 0:
        raise ValueError(f"not a real value: {x!r}")
    return x.real


def sort_key(x: Scalar):
    """Deterministic ordering key; exact values sort before float values."""
    if isinstance(x, Exact):
        return (0, x.terms)
    x = complex(x)
    return (1, x.real, x.imag)


def zero_scalar(exact: bool) -> Scalar:
    return ZERO if exact else 0j


def one_scalar(exact: bool) -> Scalar:
    return ONE if exact else complex(1, 0)
