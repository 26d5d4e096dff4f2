"""Symbol algebras for derivative-field monomials and Wick groups.

Words are formal products of insertions [m, z] (m-th holomorphic derivative
at the point z).  Two layers appear:

- WickGroup: a normal-ordered group :[m1, z1]...[mn, zn]:;
- WickWord: a product of Wick groups.

A single field is its own normal ordering, so a plain product
[m1, z1]...[mn, zn] is the WickWord of singleton groups (WickWord.plain).

On top of the words sit the reflection automorphism theta (anti-linear,
implementing z -> 1/conj(z) with one-form weights), the affine
reparametrization rescale (z -> a + q z with weight q^m per insertion), the
integer coefficients d_{m,a}, and the expansion of a Wick group into plain
words over partial pairings.

Words are canonicalized (insertions and groups sorted) so that merging
linear combinations is deterministic; this is legal because every
expectation in the engine is permutation symmetric.
Combination, with its one merge rule add_term, is the base of both
LinearCombination (over words) and fock.FockVector (over occupations).
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Mapping

from . import scalars
from .errors import DomainError, ResourceError
from .scalars import Scalar, as_scalar

_MODULE = "algebra"

# Largest insertion order (or mode) any map or pairing weight is built for.
# The kernel holds (m1 + m2 - 1)! and (z1 - z2)^(m1 + m2), theta expands an
# order-m insertion into m terms with powers up to 2m, and the series pair
# factor (``correlator._pair_series_eval``) sums min(m1, m2) Leibniz terms,
# so the cost grows fast with m.
MAX_ORDER = 500


def check_orders(orders, module: str) -> None:
    """Raise ResourceError when an order exceeds MAX_ORDER, before any work."""
    top = max(orders, default=0)
    if top > MAX_ORDER:
        raise ResourceError(module, f"order {top} exceeds the guard {MAX_ORDER}")


def check_point(point: Scalar, module: str, error: type[DomainError] = DomainError) -> None:
    """Raise ``error`` for an exact point with a radical part: an exact point
    is a Gaussian rational, and a float point is any complex number."""
    if isinstance(point, scalars.Exact) and not point.is_gaussian():
        raise error(module, f"an exact point must be a Gaussian rational, got {point!r}")


# ---------------------------------------------------------------------------
# d_{m,a} coefficients: the m-th derivative of f(1/z) expands as
#   d^m/dz^m f(1/z) = sum_a d_{m,a} z^{-(m+a)} f^{(a)}(1/z),  1 <= a <= m.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def d_coeff(m: int, a: int) -> int:
    """The integer d_{m,a}; zero outside 1 <= a <= m."""
    if not isinstance(m, int) or m < 1:
        raise DomainError(_MODULE, f"d_coeff needs integer m >= 1, got {m!r}")
    if not isinstance(a, int) or a < 1 or a > m:
        return 0
    sign = -1 if m % 2 else 1
    return sign * (math.factorial(m) // math.factorial(a)) * math.comb(m - 1, a - 1)


def d_table(max_m: int) -> dict[tuple[int, int], int]:
    """The d_{m,a} table built by the differentiation recursion.

    One more derivative of d_{m,a} z^{-(m+a)} f^{(a)}(1/z) gives
    d_{m+1,a} = -(m+a) d_{m,a} - d_{m,a-1}.  Kept as an independent
    cross-check of the closed form in d_coeff.
    """
    if max_m < 1:
        raise DomainError(_MODULE, f"d_table needs max_m >= 1, got {max_m!r}")
    table: dict[tuple[int, int], int] = {(1, 1): -1}
    for m in range(1, max_m):
        for a in range(1, m + 2):
            table[(m + 1, a)] = -(m + a) * table.get((m, a), 0) - table.get((m, a - 1), 0)
    return {k: v for k, v in table.items() if v}


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

_set = object.__setattr__
_KEY = attrgetter("_key")
_FIRST = itemgetter(0)


class _Canonical:
    """Base of the word types: immutable, with a canonical sort key and a hash
    computed once, at construction.  Two values are equal when their keys are."""

    __slots__ = ("_key", "_hash")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Insertion(_Canonical):
    """The symbol [m, z]: order-m derivative inserted at the point z, a float
    or an exact Gaussian rational (``check_point``).

    The key (m, scalars.sort_key(z)) and the hash hash((m, z)) are computed
    once, at construction.
    """

    __slots__ = ("order", "point")

    def __init__(self, order: int, point: Scalar):
        if not isinstance(order, int) or order < 1:
            raise DomainError(_MODULE, f"insertion order must be an integer >= 1, got {order!r}")
        point = as_scalar(point)
        check_point(point, _MODULE)
        _set(self, "order", order)
        _set(self, "point", point)
        _set(self, "_key", (order, scalars.sort_key(point)))
        _set(self, "_hash", hash((order, point)))

    def __repr__(self):
        return f"Insertion(order={self.order!r}, point={self.point!r})"


class _Sorted(_Canonical):
    """A value made of children held in key order: its key is the tuple of the
    children's keys and its hash is hash((children,))."""

    __slots__ = ()
    _field: str

    def _hold(self, children: tuple) -> None:
        _set(self, self._field, children)
        _set(self, "_key", tuple(c._key for c in children))
        _set(self, "_hash", hash((children,)))

    @classmethod
    def _of_sorted(cls, children: tuple):
        """The value of children already in key order, without sorting them again."""
        out = cls.__new__(cls)
        out._hold(children)
        return out


class WickGroup(_Sorted):
    """A single normal-ordered group :[m1, z1]...[mn, zn]: (non-empty multiset),
    its insertions held in key order."""

    __slots__ = ("insertions",)
    _field = "insertions"

    def __init__(self, insertions: tuple[Insertion, ...]):
        if not insertions:
            raise DomainError(_MODULE, "a Wick group must contain at least one insertion")
        self._hold(tuple(sorted(insertions, key=_KEY)))

    @classmethod
    def of(cls, *pairs) -> "WickGroup":
        """Build from (m, z) pairs: WickGroup.of((1, 0), (2, z))."""
        return cls(tuple(Insertion(m, z) for m, z in pairs))

    def __repr__(self):
        return f"WickGroup(insertions={self.insertions!r})"

    def __len__(self):
        return len(self.insertions)

    def total_order(self) -> int:
        return sum(ins.order for ins in self.insertions)


class WickWord(_Sorted):
    """Product of Wick groups, held in key order; the empty product is the unit."""

    __slots__ = ("groups",)
    _field = "groups"

    def __init__(self, groups: tuple[WickGroup, ...] = ()):
        self._hold(tuple(sorted(groups, key=_KEY)))

    @classmethod
    def unit(cls) -> "WickWord":
        return cls(())

    @classmethod
    def single_group(cls, group: WickGroup) -> "WickWord":
        return cls((group,))

    @classmethod
    def plain(cls, *pairs) -> "WickWord":
        """The plain product of (m, z) pairs: one singleton group per insertion."""
        return cls(tuple(WickGroup((Insertion(m, z),)) for m, z in pairs))

    def __repr__(self):
        return f"WickWord(groups={self.groups!r})"

    def __mul__(self, other):
        if isinstance(other, WickWord):
            return WickWord(self.groups + other.groups)
        return NotImplemented

    def __len__(self):
        return sum(len(g) for g in self.groups)

    def total_order(self) -> int:
        return sum(g.total_order() for g in self.groups)

    def is_exact(self) -> bool:
        return all(
            isinstance(ins.point, scalars.Exact) for g in self.groups for ins in g.insertions
        )

    def coincidence(self) -> tuple[Insertion, Insertion] | None:
        """The first pair of insertions from different groups that sit at one
        point, or None.  Such a pair is a pole of the word's expectation;
        points may coincide inside one group.

        An exact word compares exact points; a word with a float point
        compares complex values, as its kernels do.  With the insertions
        read in group order, the pair is the first (i, j) in index order:
        the earliest point that another group also holds, with its first
        later occurrence in a different group.
        """
        exact = self.is_exact()
        first: dict = {}  # point -> (index, group, insertion) of its first occurrence
        pole = None
        flat = ((g, ins) for g, group in enumerate(self.groups) for ins in group.insertions)
        for j, (gj, ins) in enumerate(flat):
            i, gi, a = first.setdefault(ins.point if exact else complex(ins.point), (j, gj, ins))
            if gi != gj and (pole is None or i < pole[0]):
                pole = (i, a, ins)
        return None if pole is None else pole[1:]


# ---------------------------------------------------------------------------
# Linear combinations
# ---------------------------------------------------------------------------

def add_term(acc: dict, key, coeff: Scalar) -> None:
    """Add coeff * key into the term dict acc, dropping a zero sum.

    The one merge rule of every combination: equal keys add, exact zeros
    (and float sums that cancel to zero) are removed, and a new key goes to
    the end so summation order is the order of first appearance.
    """
    if key in acc:
        coeff = acc[key] + coeff
    if not coeff:
        acc.pop(key, None)
    else:
        acc[key] = coeff


class Combination:
    """Finitely supported map key -> scalar coefficient, for one key type.

    Zero coefficients are never stored.  Addition, subtraction, negation,
    scalar multiplication and equality are defined between combinations of
    the same class; subclasses set ``key_type`` and add their own builders.
    """

    __slots__ = ("_terms",)
    key_type: type = object

    def __init__(self, terms: Mapping | None = None):
        acc: dict = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(key, self.key_type):
                name = self.key_type.__name__
                raise DomainError(
                    _MODULE, f"{type(self).__name__} holds {name}s, got {type(key).__name__}"
                )
            add_term(acc, key, as_scalar(coeff))
        self._terms = acc

    @classmethod
    def _of_terms(cls, acc: dict):
        """Wrap a term dict that is already merged and free of zeros."""
        out = cls.__new__(cls)
        out._terms = acc
        return out

    @classmethod
    def zero(cls):
        return cls()

    def items(self):
        return self._terms.items()

    def coeff(self, key) -> Scalar:
        return self._terms.get(key, scalars.ZERO)

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            add_term(acc, key, coeff)
        return self._of_terms(acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._of_terms({k: -c for k, c in self._terms.items()})

    def scaled(self, coeff):
        coeff = as_scalar(coeff)
        acc: dict = {}
        if coeff:
            for key, c in self._terms.items():
                add_term(acc, key, c * coeff)
        return self._of_terms(acc)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms


class LinearCombination(Combination):
    """Combination of Wick words, with the algebra product that distributes
    word concatenation."""

    __slots__ = ()
    key_type = WickWord

    @classmethod
    def of(cls, word: WickWord, coeff=1) -> "LinearCombination":
        return cls({word: as_scalar(coeff)})

    def words(self):
        return self._terms.keys()

    def __mul__(self, other):
        if isinstance(other, LinearCombination):
            acc: dict[WickWord, Scalar] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    add_term(acc, w1 * w2, c1 * c2)
            return LinearCombination._of_terms(acc)
        if isinstance(other, WickWord):
            return self * LinearCombination.of(other)
        try:
            coeff = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.scaled(coeff)

    def __rmul__(self, other):
        # Scalars commute with everything; word-by-combination products are
        # symmetric too since words are canonically sorted.
        return self.__mul__(other)

    def __repr__(self):
        if not self._terms:
            return "LinearCombination(0)"
        parts = [f"{c!r} * {w!r}" for w, c in sorted(self._terms.items(), key=lambda t: repr(t[0]))]
        return "LinearCombination(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# theta, rescale, wick expansion
# ---------------------------------------------------------------------------

def as_combination(F, module: str) -> LinearCombination:
    """F as a combination: a word or a lone group as its one term.  Raises
    DomainError from ``module`` for anything else."""
    if isinstance(F, WickGroup):
        F = WickWord.single_group(F)
    if isinstance(F, WickWord):
        return LinearCombination.of(F)
    if isinstance(F, LinearCombination):
        return F
    raise DomainError(module, f"expected a group, word or combination, got {type(F).__name__}")


def _theta_insertion(ins: Insertion, exact: bool) -> tuple[int, list[tuple]]:
    """theta of one insertion, sum_a d_{m,a} w^(m+a) [a, w] with w = 1/conj(z),
    as (den, [([a, w], re, im)]), each coefficient (re + i im)/den.

    w is the frame P/q, a Gaussian integer over q > 0 for a Gaussian-rational
    point and (w.real, w.imag) over 1 for a float point; one running power
    of P gives re + i im = d_{m,a} P^(m+a) q^(m-a) over den = q^(2m).  For
    a word with a float point (``exact`` false) each term is divided once,
    into floats over 1, and one beyond float range raises OverflowError.
    """
    if not ins.point:
        raise DomainError(_MODULE, "reflection has a pole at the origin: point z = 0")
    m = ins.order
    zbar = ins.point.conjugate()
    w = 1 / zbar if isinstance(zbar, complex) else zbar.inverse()
    pr, pi, q = scalars.to_frame(w) or (w.real, w.imag, 1)
    xr, xi = 1, 0
    for _ in range(m):
        xr, xi = xr * pr - xi * pi, xr * pi + xi * pr
    scale, den = q ** m, q ** (2 * m)
    out = []
    try:
        for a in range(1, m + 1):
            xr, xi = xr * pr - xi * pi, xr * pi + xi * pr
            scale //= q
            d = d_coeff(m, a) * scale
            out.append((Insertion(a, w), d * xr, d * xi))
        if exact:
            return den, out
        out = [(o, r / den, i / den) for o, r, i in out]
    except OverflowError:  # d_{m,a} times a float power, or a divided term
        out = []
    if out and all(cmath.isfinite(complex(r, i)) for _, r, i in out):
        return 1, out
    raise OverflowError(f"theta of {ins!r} is beyond float range")


def _frame_product(factors: list[list[tuple]], start: tuple) -> list[tuple]:
    """The terms (item tuple, re, im) of start times the product of the factors,
    each factor a list of (item, re, im) of Gaussian integers or of floats;
    the first factor varies fastest."""
    terms = [((),) + start]
    for factor in reversed(factors):
        terms = [
            ((x,) + rest, xr * r - xi * i, xr * i + xi * r)
            for rest, r, i in terms
            for x, xr, xi in factor
        ]
    return terms


def theta(F) -> LinearCombination:
    """The reflection automorphism: anti-linear, z -> 1/conj(z).

    Acts on each insertion as [m, z] -> sum_a d_{m,a} conj(z)^{-(m+a)} [a, 1/conj(z)],
    multiplicatively over insertions and groups, conjugating coefficients.
    Wick groups map to Wick groups of the same arity.  Expansion terms that
    canonicalize to one word (equal insertions inside a group) are summed.
    Each distinct insertion is expanded once per call and kind of word
    (``_theta_insertion``), and ``_theta_word`` multiplies out every word in
    one route: Gaussian-integer frames for a word of exact points, giving
    ``Exact``s each built once, and floats over 1 for a word with a float
    point, which may differ from a term-by-term product in the last bits.
    A radical coefficient c sqrt(s) gives output coefficients in sqrt(s), so
    words whose coefficients have different radicands and reflect onto one
    output word raise StructuralError (``scalars``).  Raises ResourceError
    for an order above MAX_ORDER, OverflowError for a float term beyond
    float range.
    """
    F = as_combination(F, _MODULE)
    exact = {word: word.is_exact() for word in F.words()}
    distinct = dict.fromkeys(
        (ins, exact[word]) for word in F.words() for g in word.groups for ins in g.insertions
    )
    check_orders((ins.order for ins, _ in distinct), _MODULE)
    frames: dict[tuple[Insertion, bool], tuple[int, list]] = {}
    # one object per distinct output insertion, so equal keys share their leaves
    reflected: dict[Insertion, Insertion] = {}
    for key in distinct:
        den, terms = _theta_insertion(*key)
        frames[key] = den, [(reflected.setdefault(o, o), r, i) for o, r, i in terms]
    rank = {ins: n for n, ins in enumerate(sorted(reflected, key=_KEY))}.__getitem__
    acc: dict[WickWord, Scalar] = {}
    for word, coeff in F.items():
        _theta_word(word, exact[word], coeff.conjugate(), frames, rank, acc)
    return LinearCombination._of_terms(acc)


def _theta_word(word: WickWord, exact: bool, coeff: Scalar, frames: dict, rank, acc: dict) -> None:
    """Add theta of one word, its coefficient ``coeff`` already conjugated, to acc.

    Each group's terms are built once; ``rank`` numbers the output
    insertions in key order, so a term's groups sort by integer tuples.
    The product of the insertions' frames starts from the coefficient's
    frame; a float or radical coefficient starts as 1 and multiplies each
    output coefficient after the one division (``scalars.from_frame`` for
    an exact word), so an exact word's integers never meet a float.
    """
    start = scalars.to_frame(coeff)
    re, im, den = start or (1, 0, 1)
    group_factors = []
    for g in word.groups:
        factors = []
        for ins in g.insertions:
            q, factor = frames[ins, exact]
            den *= q
            factors.append(factor)
        group_factors.append(
            [(_ranked_group(inss, rank), r, i) for inss, r, i in _frame_product(factors, (1, 0))]
        )
    for ranked, r, i in _frame_product(group_factors, (re, im)):
        if len(ranked) > 1:
            ranked = sorted(ranked, key=_FIRST)
        out = WickWord._of_sorted(tuple(g for _, g in ranked))
        value = scalars.from_frame(r, i, den) if exact else complex(r, i) / den
        add_term(acc, out, value if start else coeff * value)


def _ranked_group(insertions: tuple[Insertion, ...], rank) -> tuple[tuple[int, ...], WickGroup]:
    """(ranks, group): the group of these insertions, sorted by their integer
    ranks, and those ranks, which order groups as their keys do."""
    insertions = tuple(sorted(insertions, key=rank))
    return tuple(map(rank, insertions)), WickGroup._of_sorted(insertions)


def rescale(F, a, q) -> LinearCombination:
    """The affine reparametrization z -> a + q z with weight q^m per insertion.

    Raises ResourceError for an order above MAX_ORDER, and DomainError for
    an exact a or q with a radical part: the moved points a + q z must be
    Gaussian rationals (``check_point``).
    """
    F = as_combination(F, _MODULE)
    check_orders((i.order for w in F.words() for g in w.groups for i in g.insertions), _MODULE)
    a = as_scalar(a)
    q = as_scalar(q)
    check_point(a, _MODULE)
    check_point(q, _MODULE)
    if not q:
        raise DomainError(_MODULE, "rescale needs q != 0")
    acc: dict[WickWord, Scalar] = {}
    for word, coeff in F.items():
        moved = WickWord(
            tuple(
                WickGroup(tuple(Insertion(i.order, a + q * i.point) for i in g.insertions))
                for g in word.groups
            )
        )
        add_term(acc, moved, coeff * q ** word.total_order())
    return LinearCombination._of_terms(acc)


def _partial_pairings(seq: tuple[int, ...]):
    """Yield (pairs, singles) over all partial pairings of the index tuple."""
    if not seq:
        yield (), ()
        return
    head, rest = seq[0], seq[1:]
    for pairs, singles in _partial_pairings(rest):
        yield pairs, (head,) + singles
    for i in range(len(rest)):
        partner = rest[i]
        remaining = rest[:i] + rest[i + 1 :]
        for pairs, singles in _partial_pairings(remaining):
            yield ((head, partner),) + pairs, singles


def wick_expand(G: WickGroup) -> LinearCombination:
    """Expand a Wick group into plain words (singleton groups) over partial pairings.

    :Z:_0 = sum_Q prod_{pairs} (-C(m_a, z_a, m_b, z_b)) * prod_{unpaired} [m, z].
    Requires pairwise distinct points inside the group (the expansion has
    poles at coincidences): the plain word of its insertions must have no
    ``WickWord.coincidence``.  One ``KernelTable`` serves every partial
    pairing.
    """
    from .correlator import KernelTable  # deferred: correlator imports this module

    if not isinstance(G, WickGroup):
        raise DomainError(_MODULE, f"wick_expand expects a WickGroup, got {type(G).__name__}")
    ins = G.insertions
    plain = WickWord(tuple(WickGroup((i,)) for i in ins))
    pole = plain.coincidence()
    if pole is not None:
        raise DomainError(
            _MODULE,
            f"wick_expand needs distinct points inside the group; {pole[0].point!r} occurs twice",
        )
    exact = plain.is_exact()
    acc: dict[WickWord, Scalar] = {}
    kernels = KernelTable()
    for pairs, singles in _partial_pairings(tuple(range(len(ins)))):
        coeff: Scalar = scalars.one_scalar(exact)
        for i, j in pairs:
            coeff = coeff * (-kernels(ins[i].order, ins[i].point, ins[j].order, ins[j].point))
        add_term(acc, WickWord(tuple(WickGroup((ins[k],)) for k in singles)), coeff)
    return LinearCombination._of_terms(acc)
