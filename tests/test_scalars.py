"""Exact scalars: arithmetic laws, radicals, inversion, conversions, and
agreement with the multi-radical reference ring."""
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeboson import scalars
from freeboson.errors import DomainError, ResourceError, StructuralError
from freeboson.scalars import I, ONE, ZERO, as_scalar, rational, root
import exact_reference as ref

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
gaussians = st.builds(rational, fractions, fractions)


def _parts(x):
    return x.s, x.re, x.im


def test_rational_construction():
    x = rational(Fraction(3, 4), Fraction(-1, 2))
    assert (x.re, x.im) == (Fraction(3, 4), Fraction(-1, 2))
    assert not x.is_rational()
    assert rational(5).is_rational()
    assert rational(5).rational() == 5


def test_zero_handling():
    assert not ZERO
    assert not rational(1) - rational(1)
    assert not bool(ZERO)
    assert bool(ONE)


@pytest.mark.parametrize("n,expected_s,expected_k", [
    (2, 2, 1),
    (4, 1, 2),
    (8, 2, 2),
    (12, 3, 2),
    (1, 1, 1),
    (360, 10, 6),
])
def test_root_squarefree(n, expected_s, expected_k):
    r = root(n)
    assert _parts(r) == (expected_s, Fraction(expected_k), Fraction(0))


def test_root_rational():
    # sqrt(1/2) = sqrt(2)/2
    assert root(Fraction(1, 2)) == root(2) / 2
    assert root(0) == ZERO
    with pytest.raises(DomainError):
        root(-1)


def test_radical_multiplication():
    assert root(2) * root(2) == rational(2)
    assert root(2) * root(3) == root(6)
    assert root(6) * root(10) == 2 * root(15)


def test_i_squares_to_minus_one():
    assert I * I == rational(-1)
    assert (root(2) * I) ** 2 == rational(-2)


def test_inverse_radical():
    # 1/(c sqrt(s)) = conj(c) sqrt(s) / (|c|^2 s)
    x = rational(1, 2) * root(6)
    assert x.inverse() == rational(1, -2) * root(6) / 30
    assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    # sums of radicals invert in the reference ring
    x = ref.ONE + ref.root(2)
    assert x * x.inverse() == ref.ONE
    y = ref.root(2) + ref.root(3) * ref.I + ref.rational(Fraction(1, 7), Fraction(2, 3))
    assert y * y.inverse() == ref.ONE
    with pytest.raises(ZeroDivisionError):
        ref.ZERO.inverse()


def test_division_forms():
    assert rational(3) / rational(4) == rational(Fraction(3, 4))
    assert 1 / root(2) == root(2) / 2
    assert rational(1, 1) / rational(1, -1) == I  # (1+i)/(1-i) = i


def test_division_by_a_float_is_float():
    x = rational(1, 2)
    assert x / 2.0 == complex(0.5, 1.0)
    assert x / complex(0, 2) == complex(1.0, -0.5)
    assert type(x / 4.0) is complex


def test_power():
    x = rational(Fraction(1, 2), Fraction(1, 3))
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


@pytest.mark.parametrize("x", [rational(Fraction(1, 2), Fraction(-2, 3)), rational(Fraction(3, 4), 1) * root(6)])
def test_power_is_the_repeated_product(x):
    for n in range(-6, 10):
        base = x if n >= 0 else x.inverse()
        product = ONE
        for _ in range(abs(n)):
            product = product * base
        assert x ** n == product, n
    assert ZERO ** 0 == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_power_makes_no_wasted_product(monkeypatch):
    # left-to-right square and multiply: one square per bit below the top one
    # and one product per set bit below it, none thrown away
    calls = []
    product = scalars.Exact.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(scalars.Exact, "__mul__", counted)
    x = rational(Fraction(2, 3), Fraction(1, 5)) * root(2)
    for n in list(range(1, 40)) + [-7, -12, 1000]:
        calls.clear()
        x ** n
        m = abs(n)
        assert len(calls) == (m.bit_length() - 1) + (bin(m).count("1") - 1), n


def test_repr_of_parts_over_the_interpreter_digit_cap():
    # the expectation of 12 singletons of order 3 at k/p_k + i(k+1)/p'_k, the
    # primes 101..167 forwards and backwards: parts of over 4300 digits
    from freeboson.algebra import WickWord
    from freeboson.correlator import expect_combo

    primes = [p for p in range(101, 168) if all(p % d for d in range(2, p))]
    points = [(Fraction(k, primes[k - 1]), Fraction(k + 1, primes[-k])) for k in range(1, 13)]
    value = expect_combo(WickWord.plain(*[(3, rational(re, im)) for re, im in points]))
    text = repr(value)
    re, im = value.re, value.im
    bits = [abs(k).bit_length() for k in (re.numerator, re.denominator, im.numerator, im.denominator)]
    assert text == (
        f"Exact(({'-' if re < 0 else ''}<{bits[0]}-bit integer>/<{bits[1]}-bit integer>"
        f"+{'-' if im < 0 else ''}<{bits[2]}-bit integer>/<{bits[3]}-bit integer>j))"
    )
    # parts under the cap keep their decimal form
    assert repr(rational(Fraction(-3, 4), 5) * root(2)) == "Exact((-3/4+5j)*sqrt(2))"


def test_conjugate_and_parts():
    x = rational(1, 2) * root(3)
    assert x.conjugate() == rational(1, -2) * root(3)
    assert scalars.abs_sq(x) == x * x.conjugate() == rational(15)
    assert complex(x * rational(1, -2)) == pytest.approx(5 * 3 ** 0.5)
    with pytest.raises(ValueError):
        scalars.real_value(x * rational(1, -2))  # real, but not rational
    # the parts of a sum of radicals, in the reference ring
    x = ref.rational(1, 2) + ref.root(3) * ref.I
    assert x.conjugate() == ref.rational(1, -2) - ref.root(3) * ref.I
    assert x.real_part() == ref.rational(1)
    assert x.imag_part() == ref.rational(2) + ref.root(3)
    assert x.abs_sq() == x * x.conjugate()


def test_equality_and_hash():
    assert rational(Fraction(3, 4)) == Fraction(3, 4)
    assert rational(7) == 7
    assert hash(rational(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert hash(rational(7)) == hash(7)
    # radical values hash on their term structure
    assert root(2) == root(8) / 2
    assert hash(root(2)) == hash(root(8) / 2)
    # no implicit float equality: keeps hashing consistent
    assert (rational(1) == 1.0) is False or True  # NotImplemented falls back


def test_the_unit_is_one_object():
    # like ZERO, the value 1 is one object: rational gives it, and a product
    # by it is the other factor itself
    assert rational(1) is ONE and rational(Fraction(2, 2), 0) is ONE
    assert ZERO + 1 is ONE and 1 + ZERO is ONE
    for x in (rational(Fraction(2, 3), Fraction(1, 5)), root(2) * rational(Fraction(-3, 7), 4),
              root(3), I, ZERO, ONE):
        assert x * ONE is x and ONE * x is x
    # a product by a value equal to 1 built another way is still the value
    other_one = rational(Fraction(3, 5), Fraction(4, 5)) * rational(Fraction(3, 5), Fraction(-4, 5))
    x = root(2) * rational(Fraction(1, 3), 2)
    assert other_one == ONE and _parts(x * other_one) == _parts(x)
    # a real value is its own conjugate; a non-real one is not
    for x in (ONE, ZERO, rational(Fraction(-7, 3)), root(5) * rational(Fraction(2, 9))):
        assert x.conjugate() is x
    assert I.conjugate() == -I and (root(2) * I).conjugate() == -(root(2) * I)
    # 1 hashes, compares and sorts as it did
    assert hash(ONE) == hash(1) == hash(Fraction(1)) == hash(rational(4) / 4)
    assert ONE == 1 and ONE == Fraction(1) and ONE == rational(4) / 4 and ONE != I
    assert scalars.sort_key(ONE) == (0, 1, Fraction(1), Fraction(0))
    assert _parts(ONE) == (1, Fraction(1), Fraction(0)) and repr(ONE) == "Exact((1))"


def _random_gaussian_parts(rng):
    while True:
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if re or im:
            return re, im


def test_gaussian_canonical_form():
    # Gaussian-rational products, sums and inverses must give the same
    # canonical value as the reference ring's general route: the parts
    # (1, re, im) with Fraction coefficients, and (0, 0, 0) for zero, where
    # the reference holds one (1, re, im) triple or the empty tuple.
    rng = random.Random(2024)
    for _ in range(50):
        ar, ai = _random_gaussian_parts(rng)
        br, bi = _random_gaussian_parts(rng)
        a = rational(ar, ai)
        b = rational(br, bi)
        norm = ar * ar + ai * ai
        cases = [
            (a * b, ar * br - ai * bi, ar * bi + ai * br),
            (a + b, ar + br, ai + bi),
            (a - b, ar - br, ai - bi),
            (a.inverse(), ar / norm, -ai / norm),
            (a * a.conjugate(), norm, Fraction(0)),
        ]
        ra, rb = ref.of(a), ref.of(b)
        general = [ra * rb, ra + rb, ra - rb, ra.inverse(), ra * ra.conjugate()]
        for (value, re, im), reference in zip(cases, general):
            expected = (1, re, im) if re or im else (0, 0, 0)
            assert _parts(value) == expected
            assert reference.terms == ((expected,) if re or im else ())
            s, x, y = _parts(value)
            assert type(s) is int
            assert type(x) is Fraction and type(y) is Fraction
            assert hash(value) == hash(rational(re, im))
            assert hash(value) == hash(value)
        assert hash(a * a.conjugate()) == hash(norm)
        assert _parts(a - a) == (0, 0, 0)
        assert _parts(a * ZERO) == (0, 0, 0)
        assert _parts(ZERO * a) == (0, 0, 0)
        assert (a + ZERO) == a and (ZERO - a) == -a
        assert (a * root(2)) / root(2) == a
        with pytest.raises(StructuralError) as info:
            (a * root(6) + b) - a * root(6)
        assert info.value.module == "scalars"
        assert (ra * ref.root(6) + rb) - ra * ref.root(6) == rb


def test_float_promotion():
    assert rational(1) + 0.5 == 1.5
    assert root(2) * 1.0 == pytest.approx(2 ** 0.5)
    assert isinstance(rational(1) * (1 + 0j), complex)


def test_complex_conversion():
    z = complex(rational(Fraction(1, 4), Fraction(-1, 3)) * root(2))
    assert z == pytest.approx(complex(2 ** 0.5 / 4, -(2 ** 0.5) / 3))
    assert complex(ZERO) == 0j
    # a sum of radicals, in the reference ring
    z = complex(ref.rational(Fraction(1, 4), Fraction(-1, 3)) + ref.root(2))
    assert z == pytest.approx(complex(0.25 + 2 ** 0.5, -1 / 3))


def test_as_scalar_dispatch():
    assert as_scalar(Fraction(1, 3)) == rational(Fraction(1, 3))
    assert as_scalar(2) == rational(2)
    assert isinstance(as_scalar(0.5), complex)
    assert as_scalar(ONE) is ONE
    with pytest.raises(TypeError):
        as_scalar("nope")


def test_real_value():
    assert scalars.real_value(rational(Fraction(2, 3))) == Fraction(2, 3)
    with pytest.raises(ValueError):
        scalars.real_value(root(2))  # a radical is not a rational
    assert complex(root(2)) == pytest.approx(2 ** 0.5)
    assert scalars.real_value(complex(1.5, 0)) == 1.5
    with pytest.raises(ValueError):
        scalars.real_value(I)
    with pytest.raises(ValueError):
        scalars.real_value(complex(0, 1))


def test_sort_key_orders_backends():
    assert scalars.sort_key(rational(1)) < scalars.sort_key(complex(0))


@settings(max_examples=60, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    assert a - a == ZERO


@settings(max_examples=60, deadline=None)
@given(gaussians, st.sampled_from([1, 2, 3, 5, 6]), fractions)
def test_inverse_roundtrip(g, s, f):
    x = g * root(s)
    if x:
        assert x * x.inverse() == ONE
        assert x.inverse().inverse() == x
    # a Gaussian rational plus a radical, in the reference ring
    x = ref.of(g) + ref.root(s) * f
    if not x.is_zero():
        assert x * x.inverse() == ref.ONE
        assert x.inverse().inverse() == x


def test_sums_of_two_radicands_are_refused():
    for make in (
        lambda: root(2) + 1,
        lambda: 1 - root(2),
        lambda: root(2) + root(3),
        lambda: root(2) * I - root(3),
    ):
        with pytest.raises(StructuralError) as info:
            make()
        assert info.value.module == "scalars"
    # values are built by rational and root alone: no constructor takes parts
    for args in (({2: (1, 0), 3: (1, 0)},), ({2: (1, 0), 3: (0, 0)},), ()):
        with pytest.raises(TypeError, match="rational.*root"):
            scalars.Exact(*args)
    # zero adds to anything, and one radicand adds
    assert root(2) + ZERO == root(2) and ZERO - root(3) == -root(3)
    assert root(2) * I + root(8) == rational(2, 1) * root(2)
    assert _parts(root(2) - root(2)) == (0, 0, 0)
    assert root(2) + 0 * root(3) == root(2)


def test_in_unit_disc_is_exact_on_radicals():
    # |c sqrt(s)|^2 = |c|^2 s is rational
    assert scalars.in_unit_disc(root(2) / 2)
    assert not scalars.in_unit_disc(root(2) * rational(Fraction(1, 2), Fraction(1, 2)) * root(2))
    assert not scalars.in_unit_disc(root(Fraction(1, 2)) * rational(1, 1))
    assert scalars.in_unit_disc(rational(Fraction(1, 2), Fraction(-1, 3)))
    assert scalars.in_unit_disc(complex(0.5, 0.5)) and not scalars.in_unit_disc(1.0)


# single radicals: squarefree radicands, and the roots of random rationals
radicals = st.one_of(
    st.sampled_from([1, 2, 3, 5, 6, 10, 15]).map(root),
    st.fractions(min_value=0, max_value=50, max_denominator=30).map(root),
)


def _assert_same_value(got, want):
    assert ((_parts(got),) if got else ()) == want.terms
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(gaussians, gaussians, gaussians, radicals, radicals, st.integers(min_value=-4, max_value=4))
def test_single_radical_values_agree_with_the_reference(g, h, k, r, t, n):
    # x and y share a radicand, z has its own
    x, y, z = g * r, h * r, k * t
    rx, ry, rz = ref.of(x), ref.of(y), ref.of(z)
    _assert_same_value(x * z, rx * rz)
    _assert_same_value(x * Fraction(3, 7), rx * Fraction(3, 7))
    _assert_same_value(x + y, rx + ry)
    _assert_same_value(x - y, rx - ry)
    _assert_same_value(-x, -rx)
    _assert_same_value(x.conjugate(), rx.conjugate())
    _assert_same_value(scalars.abs_sq(x), rx.abs_sq())
    _assert_same_value(scalars.abs_sq(z), rz.abs_sq())
    if z:
        _assert_same_value(z.inverse(), rz.inverse())
        _assert_same_value(x / z, rx / rz)
    if x or n >= 0:
        _assert_same_value(x ** n, rx ** n)
    assert complex(x) == complex(rx) and complex(z) == complex(rz)
    assert bool(x) == bool(rx) and bool(z) == bool(rz)
    assert ref.to_package(rx * rz) == x * z


radical_values = st.one_of(st.just(ZERO), st.builds(lambda g, r: g * r, gaussians, radicals))


@settings(max_examples=100, deadline=None)
@given(st.lists(radical_values, max_size=10))
def test_sort_key_orders_as_the_reference_terms(xs):
    # the key (0, s, re, im) orders values as (0, terms) of the reference
    # ring does, zero (the empty tuple there) first
    by_key = sorted(xs, key=scalars.sort_key)
    assert by_key == sorted(xs, key=lambda x: (0, ref.of(x).terms))
    for x in xs:
        assert scalars.sort_key(ZERO) <= scalars.sort_key(x)
        for y in xs:
            assert (scalars.sort_key(x) == scalars.sort_key(y)) == (x == y)


def test_parts_are_read_only():
    x = rational(1, 2) * root(3)
    assert _parts(x) == (3, 1, 2) and _parts(ZERO) == (0, 0, 0) and _parts(I) == (1, 0, 1)
    for name in ("s", "re", "im", "_s", "_re", "_im", "_hash"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == rational(1, 2) * root(3) and hash(x) == hash(rational(1, 2) * root(3))


def _squarefree_reference(n):
    """(k, s) with n = k*k*s, s squarefree, by unbounded trial division."""
    k, s, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        k *= d ** (e // 2)
        s *= d ** (e % 2)
        d += 1
    return k, s * n


def _root_reference(x):
    """The parts (s, re, im) of sqrt(x), for a rational x > 0."""
    f = Fraction(x)
    k, s = _squarefree_reference(f.numerator * f.denominator)
    return s, Fraction(k, f.denominator), Fraction(0)


def test_root_values_unchanged_under_the_trial_bound():
    values = [Fraction(n) for n in range(1, 3000)]
    values += [Fraction(p, q) for p in range(1, 40) for q in range(1, 40)]
    values += [Fraction(1, math.factorial(n)) for n in (*range(1, 30), 100, 250, 500, 1023)]
    values += [Fraction(2 * m) for m in range(1, 501)]
    # a prime cofactor just below TRIAL_BOUND^2, and squares of primes above the bound
    assert scalars.TRIAL_BOUND ** 2 > 4294967291
    values += [Fraction(4294967291), Fraction(65537 ** 2 * 12), Fraction(3, 65537 ** 2)]
    for x in values:
        assert _parts(root(x)) == _root_reference(x), x
    assert root((2 ** 61 - 1) ** 2 * 3) == (2 ** 61 - 1) * root(3)
    assert root(Fraction(5, (2 ** 89 - 1) ** 2)) == root(5) / (2 ** 89 - 1)


def test_root_refuses_an_unfactored_cofactor():
    started = time.perf_counter()
    for n in ((2 ** 61 - 1) * (2 ** 89 - 1), 65537 * 65539, Fraction(7, (2 ** 61 - 1) * (2 ** 31 - 1))):
        with pytest.raises(ResourceError) as info:
            root(n)
        assert info.value.module == "scalars"
    assert time.perf_counter() - started < 1.0


def _counted_entries(values):
    """An entry rule reading values[i][j], and the list of its calls."""
    calls = []

    def entry(i, j):
        calls.append((i, j))
        return values[i][j]

    return entry, calls


def test_hermitian_mirrors_each_exact_entry():
    n = 4
    upper = [[rational(i - j, i + 2 * j) for j in range(n)] for i in range(n)]
    entry, calls = _counted_entries(upper)
    matrix = scalars.hermitian(n, entry)
    assert len(calls) == n * (n + 1) // 2
    assert sorted(calls) == [(i, j) for i in range(n) for j in range(i, n)]
    for i in range(n):
        for j in range(n):
            if j < i:
                assert matrix[i][j] == matrix[j][i].conjugate()
            else:
                assert matrix[i][j] is upper[i][j]


def test_hermitian_computes_every_float_entry():
    n = 3
    values = [[complex(i, j) for j in range(n)] for i in range(n)]
    entry, calls = _counted_entries(values)
    assert scalars.hermitian(n, entry) == values
    assert calls == [(i, j) for i in range(n) for j in range(n)]


def test_hermitian_mirrors_by_the_type_of_each_value():
    # a float above the diagonal is computed again below it; an Exact is mirrored
    values = [[ONE, 0.5 + 1j], [rational(0, 7), I]]
    entry, calls = _counted_entries(values)
    assert scalars.hermitian(2, entry) == [[ONE, 0.5 + 1j], [rational(0, 7), I]]
    assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]
    values = [[ONE, rational(1, 2)], [0.25j, I]]
    entry, calls = _counted_entries(values)
    assert scalars.hermitian(2, entry) == [[ONE, rational(1, 2)], [rational(1, -2), I]]
    assert calls == [(0, 0), (0, 1), (1, 1)]


def test_hermitian_of_size_zero_is_empty():
    entry, calls = _counted_entries([])
    assert scalars.hermitian(0, entry) == []
    assert calls == []


def test_total_keeps_a_lone_negative_zero():
    lone = complex(-0.0, -0.0)
    kept = scalars.total(iter([lone]), 0j)
    assert (math.copysign(1, kept.real), math.copysign(1, kept.imag)) == (-1, -1)
    # a sum started from +0 loses both signs
    restarted = sum([lone], 0j)
    assert (math.copysign(1, restarted.real), math.copysign(1, restarted.imag)) == (1, 1)


def test_total_of_no_terms_is_the_empty_value():
    for empty in (ZERO, 0j):
        assert scalars.total(iter(()), empty) is empty


def test_total_of_exact_terms_is_exact():
    terms = [rational(Fraction(1, 3), 2) * root(2), rational(-5, Fraction(7, 4)) * root(2), ZERO]
    assert scalars.total(terms, ZERO) == rational(Fraction(-14, 3), Fraction(15, 4)) * root(2)
    halves = [rational(Fraction(1, 3)), rational(Fraction(1, 6))]
    assert scalars.total(halves, ZERO) == rational(Fraction(1, 2))
