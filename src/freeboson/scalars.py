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
promotes to float; exact-with-exact stays exact.  On either backend a zero
test is ``not x``, the conjugate is ``x.conjugate()``, an exact value is an
``isinstance(x, Exact)``, |x|^2 is ``abs_sq(x)``, a Hermitian matrix is
``hermitian(n, entry)`` and a sum that keeps a lone float -0.0 part is
``total(terms, empty)``.

The exact zero and unit are each one object, ``ZERO`` and ``ONE``:
``rational`` returns them for 0 and 1, so ``ZERO + 1`` is ``ONE``; an
``Exact`` product with ``ONE`` returns the other factor, found by identity
with no Fraction work, and a real value is its own conjugate.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt as _fsqrt
from typing import Callable, Iterable, Union

from .errors import DomainError, ResourceError, StructuralError, integer_text

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
    """A Gaussian rational times one square root: c sqrt(s), with
    c = re + i*im of Fraction parts and s a squarefree integer >= 1, or zero.

    Held as the three parts s, re and im, read through read-only properties;
    s = 1 is a Gaussian rational and zero is s = 0 with re = im = 0.  The
    form is canonical, so equality compares the parts.  There is no public
    constructor: values come from ``rational``, ``root``, ``from_frame`` and
    arithmetic.  A sum of nonzero values with two radicands, such as
    sqrt(2) + 1, raises StructuralError.  Instances are immutable and
    hashable; the hash is computed once.
    """

    __slots__ = ("_s", "_re", "_im", "_hash")

    def __init__(self, *args, **kwargs):
        raise TypeError("Exact has no public constructor; build values with rational() or root()")

    def __setattr__(self, name, value=None):
        raise AttributeError("Exact is immutable")

    __delattr__ = __setattr__

    # -- structure queries ------------------------------------------------

    s = property(lambda self: self._s, doc="The radicand: 1 for a Gaussian rational, 0 for zero.")
    re = property(lambda self: self._re, doc="The real part of c.")
    im = property(lambda self: self._im, doc="The imaginary part of c.")

    def is_gaussian(self) -> bool:
        """True when the value lies in Q(i) (no radical part)."""
        return self._s <= 1

    def is_rational(self) -> bool:
        return self._s <= 1 and not self._im

    def rational(self) -> Fraction:
        if self._s > 1 or self._im:
            raise ValueError(f"not rational: {self!r}")
        return self._re

    def conjugate(self) -> "Exact":
        return _make(self._s, self._re, -self._im) if self._im else self

    # -- arithmetic -------------------------------------------------------

    def _add(self, other, sign: int):
        """self + other for sign 1, self - other for sign -1."""
        if isinstance(other, (int, Fraction)):
            other = rational(other)
        elif not isinstance(other, Exact):
            if isinstance(other, (float, complex)):
                return complex(self) + other if sign == 1 else complex(self) - other
            return NotImplemented
        t = other._s
        if not t:
            return self
        s = self._s
        if not s:
            return other if sign == 1 else -other
        if s != t:
            raise StructuralError(_MODULE, f"sum of two radicands: {self!r} and {other!r}")
        a, b, c, d = self._re, self._im, other._re, other._im
        re, im = (a + c, b + d) if sign == 1 else (a - c, b - d)
        return _make(s, re, im) if re or im else ZERO

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _make(self._s, -self._re, -self._im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            f = Fraction(other)
            return _make(self._s, self._re * f, self._im * f)
        if isinstance(other, Exact):
            # the unit is one object (``rational`` returns ``ONE`` for 1)
            if other is ONE:
                return self
            if self is ONE:
                return other
            s, t = self._s, other._s
            if not s or not t:
                return ZERO
            a, b, c, d = self._re, self._im, other._re, other._im
            re = a * c - b * d
            im = a * d + b * c
            if s == 1 or t == 1:
                return _make(s * t, re, im)
            # sqrt(s) sqrt(t) = g sqrt((s/g)(t/g)) with g = gcd(s, t)
            g = gcd(s, t)
            return _make((s // g) * (t // g), re * g, im * g)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        """1/(c sqrt(s)) = conj(c) sqrt(s) / (|c|^2 s)."""
        s = self._s
        if not s:
            raise ZeroDivisionError("division by exact zero")
        a, b = self._re, self._im
        r = (a * a + b * b) * s
        return _make(s, a / r, -b / r)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * rational(other).inverse()
        if isinstance(other, Exact):
            return self * other.inverse()
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if not n:
            return ONE
        # left to right over the bits below the top one: a square per bit and
        # a product by self per set bit, (bit_length - 1) + (popcount - 1) in all
        result = self
        for bit in range(n.bit_length() - 2, -1, -1):
            result = result * result
            if n >> bit & 1:
                result = result * self
        return result

    # -- comparisons / conversions ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, Exact):
            return self._s == other._s and self._re == other._re and self._im == other._im
        if isinstance(other, (int, Fraction)):
            return self._s <= 1 and not self._im and self._re == other
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            # a rational hashes as its Fraction, so Exact == int/Fraction stays consistent
            h = hash(self._re) if self.is_rational() else hash(((self._s, self._re, self._im),))
            _set_hash(self, h)
            return h

    def __bool__(self):
        return bool(self._s)

    def __complex__(self):
        w = _fsqrt(self._s)
        return complex(float(self._re) * w, float(self._im) * w)

    def __repr__(self):
        s, re, im = self._s, self._re, self._im
        if not s:
            return "Exact(0)"
        root_txt = "" if s == 1 else f"*sqrt({s})"
        re, im = _fraction_text(re), _fraction_text(im)
        if im == "0":
            return f"Exact(({re}){root_txt})"
        if re == "0":
            return f"Exact(({im}j){root_txt})"
        return f"Exact(({re}+{im}j){root_txt})"


def _fraction_text(x: Fraction) -> str:
    """str(x), with an integer too long for the interpreter's decimal
    conversion cap shown by its bit length, so ``repr`` never raises."""
    num = integer_text(x.numerator)
    return num if x.denominator == 1 else f"{num}/{integer_text(x.denominator)}"


_new = object.__new__
_set_s = Exact._s.__set__
_set_re = Exact._re.__set__
_set_im = Exact._im.__set__
_set_hash = Exact._hash.__set__


def _make(s: int, re: Fraction, im: Fraction) -> Exact:
    """The Exact of canonical parts: s squarefree and re + i*im nonzero, or
    (0, 0, 0) for zero.  Every value is built here."""
    obj = _new(Exact)
    _set_s(obj, s)
    _set_re(obj, re)
    _set_im(obj, im)
    return obj


def to_frame(x) -> tuple[int, int, int] | None:
    """(re, im, den) with x = (re + i*im)/den, integers, den > 0 the least
    common denominator of the two parts; None unless x is an exact Gaussian
    rational.  ``from_frame`` is its inverse."""
    if not (isinstance(x, Exact) and x.is_gaussian()):
        return None
    re, im = x._re, x._im
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def from_frame(re: int, im: int, den: int) -> Exact:
    """The canonical Exact of (re + i*im)/den, for integers re, im and den > 0."""
    if re or im:
        return _make(1, Fraction(re, den), Fraction(im, den))
    return ZERO


ZERO = _make(0, Fraction(0), Fraction(0))
ONE = _make(1, Fraction(1), Fraction(0))
I = _make(1, Fraction(0), Fraction(1))

Scalar = Union[Exact, complex]


def rational(re: RationalLike, im: RationalLike = 0) -> Exact:
    """Exact Gaussian rational re + i*im; ``ONE`` itself for 1, as ``ZERO``
    for 0."""
    re, im = Fraction(re), Fraction(im)
    if not im and re == 1:
        return ONE
    return _make(1, re, im) if re or im else ZERO


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
    k, s = _squarefree_split(f.numerator * f.denominator)
    return _make(s, Fraction(k, f.denominator), Fraction(0))


def as_scalar(x) -> Scalar:
    """Coerce to a backend value: exact for int/Fraction/Exact, complex else."""
    if isinstance(x, Exact):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    if isinstance(x, (float, complex)):
        return complex(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def abs_sq(x: Scalar) -> Scalar:
    """x * conj(x); real, exact on the exact backend."""
    if isinstance(x, Exact):
        return x * x.conjugate()
    x = complex(x)
    return complex(x.real * x.real + x.imag * x.imag, 0.0)


def in_unit_disc(z: Scalar) -> bool:
    """|z| < 1, decided exactly for an exact z, whose |z|^2 is rational."""
    return real_value(abs_sq(z)) < 1


def real_value(x) -> Union[Fraction, float]:
    """The real number a scalar represents: a Fraction for an exact value,
    a float otherwise.  Raises ValueError for a value with a nonzero
    imaginary part, and for an exact value with a radical part.
    """
    if isinstance(x, Exact):
        return x.rational()
    x = complex(x)
    if x.imag != 0:
        raise ValueError(f"not a real value: {x!r}")
    return x.real


def sort_key(x: Scalar):
    """Deterministic ordering key; exact values sort before float values."""
    if isinstance(x, Exact):
        return (0, x._s, x._re, x._im)
    x = complex(x)
    return (1, x.real, x.imag)


def hermitian(n: int, entry: Callable[[int, int], Scalar]) -> list[list[Scalar]]:
    """The n x n matrix of a Hermitian rule, built row by row: ``entry(i, j)``
    on and above the diagonal, and below it the conjugate of the mirror when
    that is an ``Exact``.  Under any other mirror ``entry(i, j)`` is called
    too, so a float matrix keeps all n^2 computed values."""
    rows: list[list[Scalar]] = []
    for i in range(n):
        mirrors = enumerate(rows[j][i] for j in range(i))
        below = [m.conjugate() if isinstance(m, Exact) else entry(i, j) for j, m in mirrors]
        rows.append(below + [entry(i, j) for j in range(i, n)])
    return rows


def total(terms: Iterable[Scalar], empty: Scalar) -> Scalar:
    """The sum of ``terms`` started from the first one, so a lone float -0.0
    part survives (``sum(terms, 0j)`` would give +0.0); ``empty`` itself when
    there are no terms."""
    terms = iter(terms)
    result = next(terms, empty)
    for term in terms:
        result = result + term
    return result


def zero_scalar(exact: bool) -> Scalar:
    return ZERO if exact else 0j


def one_scalar(exact: bool) -> Scalar:
    return ONE if exact else complex(1, 0)
