"""Dual-backend complex scalars.

The exact backend is the ring Q(i)[sqrt(s) : s squarefree positive integer]:
finite sums sum_s (a_s + i b_s) sqrt(s) with rational a_s, b_s.  Gaussian
rationals are the s = 1 slice; square roots enter only through normalization
prefactors like 1/sqrt(n!) and i*sqrt(2m)/m!, and the ring is closed under
division, so every identity in the engine can be tested with zero rounding.
Products, sums and inverses of Gaussian rationals, by far the common case,
work directly on the two (re, im) Fraction pairs; only operands with radicals
take the general term-by-term route, and both routes give the same canonical
terms.

The float backend is the builtin ``complex``.  Mixed-backend arithmetic
promotes to float; exact-with-exact stays exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt as _fsqrt
from typing import Union

from .errors import DomainError, ResourceError

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
                    "scalars",
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


def to_frame(x) -> tuple[int, int, int] | None:
    """(re, im, den) with x = (re + i*im)/den, integers, den > 0 the least
    common denominator of the two parts; None unless x is an exact Gaussian
    rational.  ``from_frame`` is its inverse."""
    if not is_gaussian(x):
        return None
    if not x._terms:
        return 0, 0, 1
    _, re, im = x._terms[0]
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def from_frame(re: int, im: int, den: int) -> Exact:
    """The canonical Exact of (re + i*im)/den, for integers re, im and den > 0."""
    return _gaussian(Fraction(re, den), Fraction(im, den))


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
        raise DomainError("scalars", f"square root of negative rational {f}")
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


def is_gaussian(x) -> bool:
    """True for an exact Gaussian rational (no radical part, not a float)."""
    return isinstance(x, Exact) and x.is_gaussian()


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
    """|z| < 1, decided exactly when |z|^2 is rational."""
    a = abs_sq(z)
    if isinstance(a, Exact) and a.is_rational():
        return a.rational() < 1
    return complex(a).real < 1.0


def real_value(x) -> Union[Fraction, float]:
    """The real number a scalar represents; exact Fraction when rational.

    Raises ValueError for values with a nonzero imaginary part.  Exact values
    with radical parts come back as floats (only comparisons need them).
    """
    if isinstance(x, Exact):
        if x.is_rational():
            return x.rational()
        if x.imag_part().is_zero():
            return complex(x).real
        raise ValueError(f"not a real value: {x!r}")
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
