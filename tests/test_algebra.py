"""Word algebra: d coefficients, canonical words, theta, rescale, Wick expansion."""
import random
import time
from fractions import Fraction
from itertools import accumulate, product

import pytest

from freeboson import scalars
from freeboson.algebra import (
    Insertion,
    LinearCombination,
    WickGroup,
    WickWord,
    add_term,
    d_coeff,
    d_table,
    rescale,
    theta,
    wick_expand,
)
from freeboson.errors import DomainError, ResourceError, StructuralError
from freeboson.fock import FockIndex, FockVector
from freeboson.sampling import random_plain_word, random_wick_word, rational_point
from freeboson.scalars import rational
import exact_reference as ref


def test_d_base_case():
    assert d_coeff(1, 1) == -1


def test_d_row_three():
    # one hand-computed row
    assert [d_coeff(3, a) for a in (1, 2, 3)] == [-6, -6, -1]


def test_d_out_of_range():
    assert d_coeff(2, 0) == 0
    assert d_coeff(2, 3) == 0
    with pytest.raises(DomainError):
        d_coeff(0, 1)


@pytest.mark.parametrize("m", range(1, 13))
def test_d_recursion_matches_closed_form(m):
    table = d_table(12)
    for a in range(1, m + 1):
        assert table[(m, a)] == d_coeff(m, a)


@pytest.mark.parametrize("m", range(1, 16))
def test_d_involution_identity(m):
    for b in range(1, m + 1):
        total = sum(d_coeff(m, a) * d_coeff(a, b) for a in range(b, m + 1))
        assert total == (1 if m == b else 0)


def test_insertion_validation():
    with pytest.raises(DomainError):
        Insertion(0, 1)
    with pytest.raises(DomainError):
        Insertion(-2, 1)
    ins = Insertion(2, Fraction(1, 3))
    assert isinstance(ins.point, scalars.Exact)


def test_word_canonicalization():
    a = WickWord.plain((1, 1)) * WickWord.plain((2, 0))
    b = WickWord.plain((2, 0)) * WickWord.plain((1, 1))
    assert a == b
    g1 = WickGroup.of((2, Fraction(1, 2)), (1, Fraction(1, 4)))
    g2 = WickGroup.of((1, Fraction(1, 4)), (2, Fraction(1, 2)))
    assert g1 == g2
    assert WickWord((g1,)) * WickWord.unit() == WickWord((g2,))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_word_keys_and_hashes_are_order_free(exact):
    rng = random.Random(29 if exact else 31)
    for _ in range(20):
        points = [rational_point(rng) for _ in range(6)]
        if not exact:
            points = [complex(z) for z in points]
        inss = [Insertion(rng.randint(1, 3), z) for z in points]
        order = list(range(6))
        rng.shuffle(order)
        a = WickWord((WickGroup(tuple(inss[:3])), WickGroup(tuple(inss[3:]))))
        b = WickWord((
            WickGroup(tuple(inss[k] for k in order if k >= 3)),
            WickGroup(tuple(inss[k] for k in order if k < 3)),
        ))
        assert a == b and a._key == b._key and hash(a) == hash(b)
        for g, h in zip(a.groups, b.groups):
            assert g == h and g._key == h._key and hash(g) == hash(h)
            assert hash(g) == hash((g.insertions,))
        assert hash(a) == hash((a.groups,))
        for ins in inss:
            # stored at construction, with the value of hash((order, point))
            assert hash(ins) == hash((ins.order, ins.point))
            assert ins._key == (ins.order, scalars.sort_key(ins.point))
        assert all(x._key <= y._key for x, y in zip(a.groups, a.groups[1:]))


def test_words_are_immutable():
    word = WickWord.plain((1, Fraction(1, 2)))
    with pytest.raises(AttributeError):
        word.groups = ()
    with pytest.raises(AttributeError):
        word.groups[0].insertions[0].order = 2
    assert repr(word) == (
        "WickWord(groups=(WickGroup(insertions=(Insertion(order=1, point=Exact((1/2))),)),))"
    )


def test_words_refuse_attribute_deletion():
    for value in (Insertion(1, 0), WickGroup.of((1, 0)), WickWord.plain((1, 0))):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            del value._hash
        assert hash(value) == value._hash


def test_combination_repr():
    half, i = WickWord.plain((1, Fraction(1, 2))), WickWord.plain((2, rational(0, 1)))
    F = LinearCombination.of(i, 3) + LinearCombination.of(half, rational(2, -1))
    # terms sorted by the repr of their words
    assert repr(F) == f"LinearCombination(Exact((2+-1j)) * {half!r} + Exact((3)) * {i!r})"
    assert repr(F - F) == repr(LinearCombination.zero()) == "LinearCombination(0)"


def test_empty_group_rejected():
    with pytest.raises(DomainError):
        WickGroup(())


def test_linear_combination_merging():
    w = WickWord.plain((1, 0))
    combo = LinearCombination({w: rational(1)}) + LinearCombination({w: rational(-1)})
    assert not combo
    combo = LinearCombination.of(w, 2) * LinearCombination.of(WickWord.unit(), Fraction(1, 2))
    assert combo.coeff(w) == rational(1)


def test_combination_holds_only_words():
    with pytest.raises(DomainError):
        LinearCombination({WickGroup.of((1, 0)): 1})


# two keys of each combination type, and a key of the wrong type
_KEYS = {
    LinearCombination: (WickWord.plain((1, 0)), WickWord.plain((2, 1)), WickGroup.of((1, 0))),
    FockVector: (FockIndex.of({1: 1}), FockIndex.of({2: 3}), WickWord.unit()),
}


@pytest.mark.parametrize("cls", list(_KEYS), ids=lambda cls: cls.__name__)
def test_combination_laws(cls):
    k1, k2, wrong = _KEYS[cls]
    a = cls({k1: 2, k2: Fraction(1, 3)})
    b = cls({k1: -2, k2: 1})
    total = a + b
    assert list(total.items()) == [(k2, rational(Fraction(4, 3)))]
    assert total.coeff(k1) == scalars.ZERO
    assert not (a - a) and a - a == cls.zero()
    assert a.scaled(0) == cls.zero()
    assert -a == a.scaled(-1) and a - b == a + (-b)
    assert a == cls({k2: Fraction(1, 3), k1: 2}) and a != b
    # float products that underflow to zero are dropped like exact zeros
    assert not cls({k1: 1e-200}).scaled(1e-200)
    other = FockVector.vacuum() if cls is LinearCombination else LinearCombination.zero()
    with pytest.raises(TypeError):
        a + other
    with pytest.raises(TypeError):
        other - a
    with pytest.raises(DomainError):
        cls({wrong: 1})


def test_combination_scalar_product():
    w = WickWord.plain((1, 1))
    c = LinearCombination.of(w)
    assert (c * 3).coeff(w) == rational(3)
    assert (Fraction(1, 2) * c).coeff(w) == rational(Fraction(1, 2))
    assert not c * 0


def test_theta_hand_value():
    # [1, 2] reflects to -(1/4) [1, 1/2]
    result = theta(WickWord.plain((1, 2)))
    expected = LinearCombination.of(
        WickWord.plain((1, Fraction(1, 2))), rational(Fraction(-1, 4))
    )
    assert result == expected
    # order 3 at a non-real point: coefficients d_{3,a} conj(z)^{-(3+a)}, a = 1..3
    z = rational(Fraction(1, 2), Fraction(1, 3))
    zbar = z.conjugate()
    result = theta(WickWord.plain((3, z)))
    expected = LinearCombination.zero()
    for a in range(1, 4):
        expected = expected + LinearCombination.of(
            WickWord.plain((a, zbar.inverse())), d_coeff(3, a) * zbar ** (-(3 + a))
        )
    assert len(expected) == 3
    assert result == expected


def test_theta_involution_seeded():
    rng = random.Random(7)
    for _ in range(20):
        F = LinearCombination.of(random_plain_word(rng, rng.randint(1, 5)))
        assert theta(theta(F)) == F
    for _ in range(20):
        F = LinearCombination.of(random_wick_word(rng, rng.randint(1, 5)))
        assert theta(theta(F)) == F


def test_theta_antilinear():
    rng = random.Random(11)
    F = LinearCombination.of(random_plain_word(rng, 2))
    c = rational(Fraction(2, 3), Fraction(-1, 5))
    assert theta(F.scaled(c)) == theta(F).scaled(c.conjugate())


def test_theta_preserves_group_arity():
    g = WickGroup.of((2, Fraction(1, 3)), (1, Fraction(-1, 4)))
    out = theta(WickWord.single_group(g))
    for word, _ in out.items():
        assert len(word.groups) == 1
        assert len(word.groups[0]) == 2


def test_theta_origin_pole():
    with pytest.raises(DomainError):
        theta(WickWord.plain((1, 0)))


def test_rescale_weight():
    w = WickWord.plain((3, Fraction(1, 2)))
    out = rescale(w, Fraction(1, 4), Fraction(1, 2))
    moved = WickWord.plain((3, Fraction(1, 4) + Fraction(1, 4)))
    assert out.coeff(moved) == rational(Fraction(1, 8))  # q^3


def test_rescale_zero_q_rejected():
    with pytest.raises(DomainError):
        rescale(WickWord.plain((1, 1)), 0, 0)


def test_rescale_composes():
    rng = random.Random(3)
    w = LinearCombination.of(random_wick_word(rng, 3))
    a1, q1 = rational_point(rng, nonzero=False), rational_point(rng)
    a2, q2 = rational_point(rng, nonzero=False), rational_point(rng)
    # z -> a2 + q2(a1 + q1 z) = (a2 + q2 a1) + (q2 q1) z
    lhs = rescale(rescale(w, a1, q1), a2, q2)
    rhs = rescale(w, a2 + q2 * a1, q2 * q1)
    assert lhs == rhs


def test_wick_expand_pair():
    # :[1,0][1,1]: = [1,0][1,1] + 1/2, since C(1,0,1,1) = -1/2
    g = WickGroup.of((1, 0), (1, 1))
    out = wick_expand(g)
    pair_word = WickWord.plain((1, 0)) * WickWord.plain((1, 1))
    assert out.coeff(pair_word) == rational(1)
    assert out.coeff(WickWord.unit()) == rational(Fraction(1, 2))
    assert len(out) == 2


def test_wick_expand_single():
    out = wick_expand(WickGroup.of((2, Fraction(1, 3))))
    assert out == LinearCombination.of(WickWord.plain((2, Fraction(1, 3))))


def test_wick_expand_coincident_points():
    # an exact point and a float point of one value coincide too
    for first, second in ((Fraction(1, 2), Fraction(1, 2)), (0.5, 0.5), (Fraction(1, 2), 0.5)):
        with pytest.raises(DomainError) as caught:
            wick_expand(WickGroup.of((1, first), (2, second)))
        assert type(caught.value) is DomainError and caught.value.module == "algebra"


def test_wick_expand_term_count():
    # partial pairings of 4 elements: the full word, 6 single pairings, and
    # 3 perfect matchings that all collapse onto the unit word -> 8 terms
    g = WickGroup.of((1, 0), (1, 1), (1, 2), (1, 3))
    out = wick_expand(g)
    assert sum(1 for _ in out.items()) == 8
    # the merged unit coefficient is the plain four point expectation
    assert out.coeff(WickWord.unit()) == rational(Fraction(169, 576))


def test_plain_word_is_the_singleton_group_word():
    z = rational(Fraction(1, 3))
    w = rational(Fraction(-1, 4), Fraction(1, 2))
    plain = WickWord.plain((1, z), (2, w))
    groups = WickWord((WickGroup.of((2, w)), WickGroup.of((1, z))))
    assert plain == groups
    assert hash(plain) == hash(groups)
    assert plain == WickWord.plain((1, z)) * WickWord.plain((2, w))
    assert not LinearCombination.of(plain) - LinearCombination.of(groups)
    assert WickWord.plain() == WickWord.unit()


def test_theta_sums_coinciding_expansion_terms():
    # :[2,z][2,z]: at z = 1/2 reflects through [2,z] -> 16 [1,2] + 16 [2,2];
    # the cross word :[1,2][2,2]: arises from both orderings, so 2 * 16 * 16
    g = WickWord.single_group(WickGroup.of((2, Fraction(1, 2)), (2, Fraction(1, 2))))
    out = theta(g)
    assert out.coeff(WickWord.single_group(WickGroup.of((1, 2), (2, 2)))) == rational(512)
    assert out.coeff(WickWord.single_group(WickGroup.of((1, 2), (1, 2)))) == rational(256)
    assert theta(out) == LinearCombination.of(g)


def _theta_insertion_scalar(ins):
    """theta of one insertion as scalars: [(d_{m,a} w^(m+a), [a, w])], w = 1/conj(z)."""
    zbar = ins.point.conjugate()
    w = 1 / zbar if isinstance(zbar, complex) else zbar.inverse()
    power = w ** ins.order
    out = []
    for a in range(1, ins.order + 1):
        power = power * w
        out.append((scalars.as_scalar(d_coeff(ins.order, a)) * power, Insertion(a, w)))
    return out


def _product_expansion(factors, start):
    """Yield (start times coefficient, insertion tuple) over the product of the factors."""
    if not factors:
        yield start, ()
        return
    head, tail = factors[0], factors[1:]
    for coeff_rest, ins_rest in _product_expansion(tail, start):
        for coeff, ins in head:
            yield coeff * coeff_rest, (ins,) + ins_rest


def _theta_reference(F, lift=lambda c: c):
    """theta multiplied out term by term in scalars, with every insertion of
    every word expanded afresh: the reference for ``theta``.  ``F`` maps
    words to coefficients; ``lift`` takes the expansion's scalars into the
    coefficients' ring (``exact_reference.of`` for the reference ring)."""
    acc = {}
    for word, coeff in F.items():
        factors = [
            [(lift(c), o) for c, o in _theta_insertion_scalar(ins)]
            for g in word.groups
            for ins in g.insertions
        ]
        ends = list(accumulate(len(g) for g in word.groups))
        for c, inss in _product_expansion(factors, coeff.conjugate()):
            groups = tuple(WickGroup(inss[a:b]) for a, b in zip([0] + ends, ends))
            add_term(acc, WickWord(groups), c)
    return LinearCombination._of_terms(acc)


def test_memoised_theta_matches_reference():
    rng = random.Random(113)
    for _ in range(10):
        W = random_wick_word(rng, rng.randint(1, 5))
        V = random_plain_word(rng, rng.randint(1, 4))
        F = LinearCombination.of(W, rational(2, -1)) + LinearCombination.of(V)
        once = theta(F)
        assert once == _theta_reference(F)
        # theta(F) repeats each reflected insertion over many words
        twice = theta(once)
        assert twice == _theta_reference(once)
        assert list(twice.items()) == list(_theta_reference(once).items())
        assert twice == F
    # equal insertions inside one group and across groups
    z = rational(Fraction(1, 3), Fraction(-1, 4))
    F = LinearCombination.of(WickWord((WickGroup.of((2, z), (2, z)), WickGroup.of((2, z)))))
    assert theta(F) == _theta_reference(F)


def _assert_theta_matches_reference(F):
    out = theta(F)
    ref = _theta_reference(F)
    assert list(out.items()) == list(ref.items())
    return out


def test_theta_large_mixed_denominators_match_reference():
    rng = random.Random(211)
    for _ in range(12):
        F = LinearCombination.zero()
        for _ in range(rng.randint(1, 4)):
            word = random_wick_word(rng, rng.randint(1, 5))
            coeff = rational(
                Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 12)),
                Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 14)),
            )
            F = F + LinearCombination.of(word, coeff)
        _assert_theta_matches_reference(F)
    # points with large coprime denominators, one insertion of order 7
    p = rational(Fraction(5, 10 ** 6 + 3), Fraction(-7, 999983))
    q = rational(Fraction(-1, 3), Fraction(2, 2 ** 31 - 1))
    F = LinearCombination.of(WickWord((WickGroup.of((7, p), (2, q)), WickGroup.of((3, q)))), 11)
    _assert_theta_matches_reference(F)


def test_theta_radical_coefficients_match_reference():
    rng = random.Random(223)
    for _ in range(10):
        W = random_wick_word(rng, rng.randint(1, 4))
        V = random_plain_word(rng, rng.randint(1, 4))
        F = LinearCombination.of(W, scalars.root(2)) + LinearCombination.of(V, rational(3, -2))
        once = _assert_theta_matches_reference(F)
        _assert_theta_matches_reference(once)
    # a Gaussian and a radical coefficient add into one output word: [1, w]
    z = rational(Fraction(1, 2), Fraction(1, 3))
    words = WickWord.plain((1, z)), WickWord.plain((2, z))
    with pytest.raises(StructuralError) as info:
        scalars.root(2) + scalars.I
    assert info.value.module == "scalars"
    F = LinearCombination.of(words[0], rational(Fraction(3, 7))) + LinearCombination.of(
        words[1], scalars.root(2)
    )
    with pytest.raises(StructuralError) as info:
        theta(F)
    assert info.value.module == "scalars"
    # the same sums, and the coefficient sqrt(2) + i, in the reference ring:
    # theta is anti-linear, so the reference's term-by-term product must equal
    # the package's theta of each word times its conjugated coefficient
    for c in (ref.root(2), ref.root(2) + ref.I):
        F = {words[0]: ref.rational(Fraction(3, 7)), words[1]: c}
        out = _theta_reference(F, ref.of)
        by_word: dict = {}
        for word, coeff in F.items():
            for o, d in theta(word).items():
                by_word[o] = by_word.get(o, ref.ZERO) + coeff.conjugate() * ref.of(d)
        assert dict(out.items()) == {o: d for o, d in by_word.items() if d}
        assert dict(_theta_reference(out, ref.of).items()) == F


def _assert_theta_close_to_reference(F):
    """theta of words with float data against the reference: the per-group
    products associate float products differently, so coefficients agree
    key-wise (a missing key counts as 0) within 1e-12 of the largest."""
    out = theta(F)
    ref = dict(_theta_reference(F).items())
    got = dict(out.items())
    scale = max((abs(complex(c)) for c in ref.values()), default=0.0)
    for key in got.keys() | ref.keys():
        diff = complex(got.get(key, 0)) - complex(ref.get(key, 0))
        assert abs(diff) <= 1e-12 * scale
    return out


def test_theta_float_words_match_reference():
    rng = random.Random(227)
    for _ in range(10):
        W = random_wick_word(rng, rng.randint(1, 4))
        floated = WickWord(tuple(
            WickGroup(tuple(Insertion(i.order, complex(i.point)) for i in g.insertions))
            for g in W.groups
        ))
        V = random_plain_word(rng, rng.randint(1, 4))
        F = (
            LinearCombination.of(floated, rational(2, 1))
            + LinearCombination.of(V, complex(0.5, -0.25))
            + LinearCombination.of(W, rational(Fraction(-1, 3)))
        )
        once = _assert_theta_close_to_reference(F)
        _assert_theta_close_to_reference(once)


def _by_order(F):
    """{order: complex coefficient} of a combination of one-insertion words."""
    return {w.groups[0].insertions[0].order: complex(c) for w, c in F.items()}


def test_float_theta_of_a_high_order_insertion_matches_the_exact_theta():
    # the float frame's running power against the exact theta at the float's
    # own rational, rounded once
    for m in (40, 50, 60):
        z = complex(0.9, 0.1)
        got = _by_order(theta(WickWord.plain((m, z))))
        want = _by_order(theta(WickWord.plain((m, rational(Fraction(z.real), Fraction(z.imag))))))
        assert got.keys() == want.keys() == set(range(1, m + 1))
        scale = max(abs(c) for c in want.values())
        assert max(abs(got[a] - want[a]) for a in want) <= 1e-12 * scale


def test_float_coefficient_on_an_exact_word_of_high_order():
    # the word's integer frame holds numerators far beyond float range; the
    # float coefficient multiplies each coefficient after its one division
    word = WickWord.plain((60, rational(Fraction(9, 10), Fraction(1, 10))), (50, rational(Fraction(1, 3), 1)))
    c = complex(0.5, -0.25)
    got = dict(theta(LinearCombination.of(word, c)).items())
    want = {w: c.conjugate() * complex(d) for w, d in theta(word).items()}
    assert got.keys() == want.keys()
    assert all(isinstance(v, complex) for v in got.values())
    scale = max(abs(v) for v in want.values())
    assert scale > 1e150
    assert max(abs(got[w] - want[w]) for w in want) <= 1e-12 * scale


def _point_key(ins):
    order, point = ins
    return order, point.terms


def _group_key(group):
    return [_point_key(ins) for ins in group]


def _theta_on_points(F):
    """theta term by term for words whose points lie in the reference ring:
    ``F`` maps words, sorted tuples of sorted groups of (order, point), to
    coefficients, and [m, z] reflects to sum_a d_{m,a} w^(m+a) [a, w] with
    w = 1/conj(z)."""
    acc: dict = {}
    for word, coeff in F.items():
        group_terms = []
        for group in word:
            terms = []
            for choice in product(*(_reflect_on_point(m, z) for m, z in group)):
                c = ref.ONE
                for _, x in choice:
                    c = c * x
                terms.append((tuple(sorted((ins for ins, _ in choice), key=_point_key)), c))
            group_terms.append(terms)
        for choice in product(*group_terms):
            c = coeff.conjugate()
            for _, x in choice:
                c = c * x
            out = tuple(sorted((g for g, _ in choice), key=_group_key))
            acc[out] = acc.get(out, ref.ZERO) + c
    return {w: c for w, c in acc.items() if c}


def _reflect_on_point(m, z):
    w = z.conjugate().inverse()
    return [((a, w), d_coeff(m, a) * w ** (m + a)) for a in range(1, m + 1)]


def _point_word(word, move=ref.of):
    """A package word as a sorted tuple of sorted groups of (order, point),
    each point taken into the reference ring by ``move``."""
    groups = (
        tuple(sorted(((i.order, move(i.point)) for i in g.insertions), key=_point_key))
        for g in word.groups
    )
    return tuple(sorted(groups, key=_group_key))


def test_theta_radical_points_match_reference():
    rng = random.Random(229)
    # the package refuses the radical points that rescale would build
    with pytest.raises(DomainError) as info:
        rescale(random_wick_word(rng, 2), rational_point(rng), scalars.root(2) / 3)
    assert info.value.module == "algebra"
    with pytest.raises(DomainError) as info:
        Insertion(1, scalars.root(2) / 4)
    assert info.value.module == "algebra"
    # theta of points moved by z -> a + q z, in the reference ring; on
    # Gaussian points the point-tuple route must give the package's theta
    for q in (ref.rational(Fraction(1, 3), Fraction(1, 4)), ref.root(2) / 3):
        for _ in range(6):
            a = rational_point(rng)
            word = random_wick_word(rng, rng.randint(1, 3))
            plain = random_plain_word(rng, 2)
            moved = _point_word(word, lambda z: ref.of(a) + q * ref.of(z))
            # a word that also holds Gaussian points
            with_plain = tuple(sorted(moved + _point_word(plain), key=_group_key))
            weight = q ** word.total_order()
            F = {moved: weight, with_plain: weight * ref.rational(1, 2)}
            out = _theta_on_points(F)
            assert _theta_on_points(out) == F
            if q.is_gaussian():
                G = rescale(word, a, ref.to_package(q))
                G = G + G * LinearCombination.of(plain, rational(1, 2))
                assert {_point_word(w): ref.of(c) for w, c in G.items()} == F
                assert {_point_word(w): ref.of(c) for w, c in theta(G).items()} == out
            else:
                points = [z for w in F for g in w for _, z in g]
                assert any(z.is_gaussian() for z in points)
                assert not all(z.is_gaussian() for z in points)


def test_theta_words_mixing_gaussian_and_float_points():
    rng = random.Random(233)
    for _ in range(8):
        W = random_wick_word(rng, rng.randint(2, 4))
        # every other insertion of the word moves to a float point
        flips = iter(range(len(W)))
        mixed = WickWord(tuple(
            WickGroup(tuple(
                Insertion(i.order, complex(i.point) if next(flips) % 2 else i.point)
                for i in g.insertions
            ))
            for g in W.groups
        ))
        F = LinearCombination.of(mixed, rational(Fraction(3, 5), -1)) + LinearCombination.of(W)
        _assert_theta_close_to_reference(F)


def test_theta_mixed_words_of_high_exact_order():
    # the exact insertion's integer frame passes float range (1000^104 and
    # numerators past 1e308) while every coefficient is finite: the word
    # with a float point divides each exact term once, before the product
    for exact in (rational(1000), rational(Fraction(9, 10), Fraction(1, 10))):
        for m in (52, 70):
            F = LinearCombination.of(WickWord.plain((m, exact), (1, 0.5)))
            out = _assert_theta_close_to_reference(F)
            assert 0 < len(out) <= m and all(isinstance(c, complex) for _, c in out.items())
            # the same insertion in an exact word of the same call stays exact
            both = F + LinearCombination.of(WickWord.plain((m, exact)))
            assert theta(both) == out + theta(WickWord.plain((m, exact)))


def test_float_theta_beyond_float_range_is_refused():
    # |w|^(m + a) overflows, or d_{m,a} itself is beyond float range: the
    # theta message, never an inf or NaN coefficient
    for word in (WickWord.plain((80, 1e-4)), WickWord.plain((80, complex(0, 1e-4)), (1, 0.5)),
                 WickWord.plain((300, 1e4))):
        with pytest.raises(OverflowError, match=r"^theta of Insertion\(.*\) is beyond float range$"):
            theta(word)


def test_theta_float_coefficient_on_gaussian_points():
    rng = random.Random(239)
    c = complex(0.75, -1.5)
    for _ in range(8):
        W = random_wick_word(rng, rng.randint(1, 4))
        out = _assert_theta_close_to_reference(LinearCombination.of(W, c))
        # anti-linear: the exact expansion times conj(c), key for key
        exact = theta(W)
        assert list(out.words()) == list(exact.words())
        for word, coeff in out.items():
            assert abs(coeff - complex(exact.coeff(word)) * c.conjugate()) <= 1e-12 * abs(coeff)


def test_theta_and_rescale_order_guard():
    word = WickWord.plain((10 ** 5, Fraction(1, 2)))
    started = time.perf_counter()
    with pytest.raises(ResourceError):
        theta(word)
    with pytest.raises(ResourceError):
        rescale(word, 0, 2)
    assert time.perf_counter() - started < 1.0
