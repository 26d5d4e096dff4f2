"""Pairing kernels, matching enumeration, and expectation values."""
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freeboson import scalars
from freeboson.algebra import (
    MAX_ORDER,
    Insertion,
    LinearCombination,
    WickGroup,
    WickWord,
    rescale,
    theta,
    wick_expand,
)
from freeboson.correlator import KernelTable, expect_combo, mobius_check
from freeboson.errors import DomainError, PoleError, ResourceError
from freeboson.hilbert import as_state, gram
from freeboson.pairing import matching_count
from freeboson.sampling import random_plain_word, random_wick_word, rational_point
from freeboson.scalars import rational, root, sort_key
import exact_reference as ref
from matching_reference import matchings


def _kernel_reference(m1, z1, m2, z2):
    """The pair kernel evaluated from scratch: one inverse and one power by
    squaring per call.  The reference for ``KernelTable``."""
    z1 = scalars.as_scalar(z1)
    z2 = scalars.as_scalar(z2)
    c = Fraction(math.factorial(m1 + m2 - 1) * (-1 if m1 % 2 else 1), 2)
    diff = z1 - z2
    if isinstance(diff, scalars.Exact):
        return scalars.rational(c) * diff ** (-(m1 + m2))
    return complex(c) / diff ** (m1 + m2)


def _cross_pairs(word):
    """(m1, z1, m2, z2) for every pair of insertions in different groups."""
    flat = [(gid, ins) for gid, g in enumerate(word.groups) for ins in g.insertions]
    return [
        (a.order, a.point, b.order, b.point)
        for i, (ga, a) in enumerate(flat)
        for gb, b in flat[i + 1:]
        if ga != gb
    ]


def _assert_table_matches_reference(words):
    table = KernelTable()
    checked = 0
    for word in words:
        for m1, z1, m2, z2 in _cross_pairs(word):
            for args in ((m1, z1, m2, z2), (m2, z2, m1, z1)):
                expected = _kernel_reference(*args)
                assert table(*args) == expected, args
                assert type(table(*args)) is type(expected)
                checked += 1
    return checked


@pytest.mark.parametrize("m1,z1,m2,z2,expected", [
    (1, 0, 1, 1, Fraction(-1, 2)),
    (1, 0, 2, 1, Fraction(1)),
    (2, 0, 2, 1, Fraction(3)),
    (1, 1, 1, 0, Fraction(-1, 2)),
])
def test_kernel_hand_values(m1, z1, m2, z2, expected):
    assert KernelTable()(m1, z1, m2, z2) == rational(expected)


def test_kernel_symmetry():
    rng = random.Random(5)
    for _ in range(10):
        z1 = rational_point(rng)
        z2 = rational_point(rng, avoid={sort_key(z1)})
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        assert KernelTable()(m1, z1, m2, z2) == KernelTable()(m2, z2, m1, z1)


def test_kernel_float_backend():
    v = KernelTable()(1, 0.0, 1, 1.0)
    assert isinstance(v, complex)
    assert v == pytest.approx(-0.5)


def test_float_kernel_beyond_float_range_names_the_kernel():
    # a float kernel that rounds to 0, or a non-finite point, is refused
    # with the kernel message, never returned as 0 or NaN
    for z in (complex(1e308, 1e308), complex("inf"), complex("nan")):
        with pytest.raises(OverflowError, match=r"^the kernel at .* is beyond float range$"):
            KernelTable()(1, z, 1, 0)


def test_kernel_pole():
    with pytest.raises(PoleError):
        KernelTable()(1, Fraction(1, 2), 3, Fraction(1, 2))


def test_kernel_order_validation():
    with pytest.raises(DomainError):
        KernelTable()(0, 0, 1, 1)


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_matchings_count(n):
    count = sum(1 for _ in matchings(n))
    double_fact = 1
    for k in range(n - 1, 0, -2):
        double_fact *= k
    assert count == double_fact


@pytest.mark.parametrize("n", [1, 3, 5])
def test_matchings_odd_empty(n):
    assert list(matchings(n)) == []


def test_matchings_cover_indices():
    for matching in matchings(6):
        seen = sorted(i for pair in matching for i in pair)
        assert seen == list(range(6))


def test_expect_empty_and_odd():
    assert expect_combo(WickWord.unit()) == rational(1)
    assert expect_combo(WickWord.plain((1, 1))) == rational(0)


def test_expect_four_point_golden():
    w = WickWord.plain(*((1, k) for k in range(4)))
    assert expect_combo(w) == rational(Fraction(169, 576))


def test_expect_four_point_is_pair_sum():
    # 1/4 + 1/64 + 1/36 = 169/576, the three pairings written out
    total = Fraction(1, 4) + Fraction(1, 64) + Fraction(1, 36)
    assert total == Fraction(169, 576)


def test_plain_word_pole():
    w = WickWord.plain((1, 1)) * WickWord.plain((2, 1))
    with pytest.raises(PoleError):
        expect_combo(w)


def test_plain_word_stats():
    # a plain word of n fields has (n-1)!! matchings: every pair is allowed
    for n in range(0, 9):
        sizes = [len(g) for g in WickWord.plain(*((1, k) for k in range(n))).groups]
        assert matching_count(sizes) == sum(1 for _ in matchings(n))


def test_expect_wick_cross_pairs_only():
    lhs = WickWord.single_group(WickGroup.of((1, 0)))
    rhs = WickWord.single_group(WickGroup.of((1, 1)))
    assert expect_combo(lhs * rhs) == rational(Fraction(-1, 2))


def test_expect_wick_degenerate_group():
    # :[1,0][1,0]: :[1,1][1,1]: has two cross matchings of weight (-1/2)^2
    a = WickWord.single_group(WickGroup.of((1, 0), (1, 0)))
    b = WickWord.single_group(WickGroup.of((1, 1), (1, 1)))
    assert expect_combo(a * b) == rational(Fraction(1, 2))


def test_expect_wick_lone_group_vanishes():
    w = WickWord.single_group(WickGroup.of((1, 0), (2, 1), (1, 2)))
    assert expect_combo(w) == rational(0)
    assert expect_combo(WickWord.unit()) == rational(1)


def test_word_inputs_are_read_alike():
    # a group, its word and its one-term combination are one input
    g = WickGroup.of((1, Fraction(1, 3)), (2, Fraction(-1, 4)))
    combo = LinearCombination.of(WickWord.single_group(g))
    for F in (g, WickWord.single_group(g), combo):
        assert expect_combo(F) == rational(0)
        assert theta(F) == theta(combo)
        assert as_state(F).combo == combo
    for call, module in (
        (expect_combo, "correlator"),
        (as_state, "hilbert"),
        (theta, "algebra"),
        (lambda F: rescale(F, 0, 1), "algebra"),
    ):
        with pytest.raises(DomainError) as caught:
            call((1, Fraction(1, 3)))
        assert caught.value.module == module


def test_every_word_is_checked_for_a_pole_before_any_is_evaluated():
    # 22 insertions put the pairing DP over its guard
    big = WickWord.plain(*((1, Fraction(k, 100)) for k in range(1, 23)))
    with pytest.raises(ResourceError):
        expect_combo(big)
    pole = WickWord((WickGroup.of((1, Fraction(1, 2))), WickGroup.of((1, Fraction(1, 2)))))
    with pytest.raises(PoleError):
        expect_combo(LinearCombination.of(big) + LinearCombination.of(pole))


def test_expect_wick_cross_coincidence_pole():
    a = WickWord.single_group(WickGroup.of((1, Fraction(1, 2))))
    b = WickWord.single_group(WickGroup.of((2, Fraction(1, 2))))
    with pytest.raises(PoleError):
        expect_combo(a * b)


@pytest.mark.parametrize("a,b", [(Fraction(1, 4), Fraction(1, 2)), (0.25, 0.5)])
def test_pole_reported_is_the_first_pair_in_index_order(a, b):
    # A(g0) B(g1) B(g2) A(g3): the B pair closes first, but the A pair starts first
    w = WickWord((
        WickGroup.of((1, a)), WickGroup.of((2, b)), WickGroup.of((3, b)), WickGroup.of((4, a)),
    ))
    with pytest.raises(PoleError) as info:
        expect_combo(w)
    (m1, z1), (m2, z2) = info.value.pair
    assert (m1, m2) == (1, 4)
    assert complex(z1) == complex(z2) == complex(a)


# Points in the unit disc.  1/3 and 1/3 + 10^-30 are distinct exact points
# with one complex value, so a word that holds a float point joins them.
_POOL = (
    (Fraction(0), Fraction(0)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(-1, 3), Fraction(1, 4)),
    (Fraction(1, 3), Fraction(0)),
    (Fraction(1, 3) + Fraction(1, 10 ** 30), Fraction(0)),
)


@st.composite
def _coincident_words(draw) -> WickWord:
    """Words of 1-4 groups and at most 8 insertions over a small pool of
    points, so that most draws hold a coincidence; exact, float or mixed."""
    kind = draw(st.sampled_from(("exact", "float", "mixed")))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 8))
    groups = []
    for size in sizes:
        insertions = []
        for _ in range(size):
            re, im = draw(st.sampled_from(_POOL))
            floated = kind == "float" or (kind == "mixed" and draw(st.booleans()))
            point = complex(re, im) if floated else rational(re, im)
            insertions.append(Insertion(draw(st.integers(1, 3)), point))
        groups.append(WickGroup(tuple(insertions)))
    return WickWord(tuple(groups))


def _first_coincidence(word: WickWord):
    """Brute force: the lexicographically first (i, j), i < j, of insertions
    in different groups at one point, compared exactly in an exact word and
    as complex values otherwise."""
    flat = [(g, ins) for g, group in enumerate(word.groups) for ins in group.insertions]
    same = (lambda u, v: u == v) if word.is_exact() else (lambda u, v: complex(u) == complex(v))
    for (gi, a), (gj, b) in itertools.combinations(flat, 2):
        if gi != gj and same(a.point, b.point):
            return a, b
    return None


@settings(max_examples=150, deadline=None)
@given(_coincident_words())
def test_coincidence_is_the_first_cross_group_pair(word):
    expected = _first_coincidence(word)
    found = word.coincidence()
    if expected is None:
        assert found is None
        expect_combo(word)
        as_state(word)
    else:
        assert found[0] is expected[0] and found[1] is expected[1]
        a, b = expected
        with pytest.raises(PoleError) as pole:
            expect_combo(word)
        assert pole.value.module == "correlator"
        assert pole.value.pair == ((a.order, a.point), (b.order, b.point))
        with pytest.raises(DomainError) as state:
            as_state(word)
        assert type(state.value) is DomainError and state.value.module == "hilbert"
        assert repr(a.point) in str(state.value)
    # wick_expand of one group of all the insertions asks its plain word
    group = WickGroup(tuple(ins for g in word.groups for ins in g.insertions))
    expected = _first_coincidence(WickWord(tuple(WickGroup((ins,)) for ins in group.insertions)))
    if expected is None:
        wick_expand(group)
    else:
        with pytest.raises(DomainError) as expansion:
            wick_expand(group)
        assert type(expansion.value) is DomainError and expansion.value.module == "algebra"
        assert f"{expected[0].point!r} occurs twice" in str(expansion.value)


def test_expect_combo_linearity():
    w = WickWord.plain((1, 0)) * WickWord.plain((1, 1))
    combo = LinearCombination.of(w, 2) + LinearCombination.of(WickWord.unit())
    # 2*(-1/2) + 1 = 0
    assert expect_combo(combo) == rational(0)


def test_wick_equals_plain_after_expansion():
    rng = random.Random(17)
    for _ in range(8):
        W = random_wick_word(rng, rng.randint(2, 6))
        expanded = None
        for group in W.groups:
            term = wick_expand(group)
            expanded = term if expanded is None else expanded * term
        assert expect_combo(W) == expect_combo(expanded)


def test_lone_group_expectation_matches_expansion():
    # the partial-pairing expansion telescopes to zero in expectation
    g = WickGroup.of((1, 0), (1, 1), (2, 2), (1, 3))
    assert expect_combo(wick_expand(g)) == rational(0)


def test_mobius_identity_map():
    rng = random.Random(23)
    W = random_plain_word(rng, 4, max_order=1)
    lhs, rhs = mobius_check(W, (1, 0, 0, 1))
    assert lhs == rhs


def test_mobius_affine_matches_rescale():
    from freeboson.algebra import rescale

    rng = random.Random(29)
    W = random_plain_word(rng, 4, max_order=1)
    lhs, rhs = mobius_check(W, (2, 1, 0, 1))  # w = 2z + 1
    assert lhs == rhs
    assert expect_combo(rescale(LinearCombination.of(W), 1, 2)) == lhs


def test_mobius_inversion():
    rng = random.Random(31)
    W = random_plain_word(rng, 4, max_order=1)
    lhs, rhs = mobius_check(W, (0, 1, 1, 0))  # w = 1/z
    assert lhs == rhs


def test_mobius_rejects_higher_orders():
    with pytest.raises(DomainError):
        mobius_check(WickWord.plain((2, 1)), (1, 0, 0, 1))


def test_mobius_degenerate_map():
    with pytest.raises(DomainError):
        mobius_check(WickWord.plain((1, 1)), (1, 2, 1, 2))


def test_mobius_refuses_a_radical_coefficient():
    # an exact coefficient must be a Gaussian rational, whatever the map's
    # shape: (sqrt2 z)/1, (z + sqrt2)/1 and (sqrt2 z)/sqrt2 are all refused
    W = WickWord.plain((1, Fraction(1, 2)), (1, Fraction(1, 3)))
    for coeffs in ((root(2), 0, 0, 1), (1, root(2), 0, 1), (root(2), 0, 0, root(2))):
        with pytest.raises(DomainError) as info:
            mobius_check(W, coeffs)
        assert type(info.value) is DomainError and info.value.module == "correlator"


def test_plain_times_wick_product():
    # [1,0][1,1/3] against :[1,1/2][1,-1/2]:, the group's own pair forbidden:
    # C(0,1/2) C(1/3,-1/2) + C(0,-1/2) C(1/3,1/2) = 36/25 + 36
    plain = WickWord.plain((1, 0), (1, Fraction(1, 3)))
    group = WickWord.single_group(WickGroup.of((1, Fraction(1, 2)), (1, Fraction(-1, 2))))
    assert expect_combo(plain * group) == rational(Fraction(936, 25))
    assert expect_combo(LinearCombination.of(plain) * group) == rational(Fraction(936, 25))


def test_mobius_multigroup_word():
    # :[1,1/4][1,1/2]: [1,1/3] [1,-1/3]: order-1 insertions in three groups
    W = WickWord((
        WickGroup.of((1, Fraction(1, 4)), (1, Fraction(1, 2))),
        WickGroup.of((1, Fraction(1, 3))),
        WickGroup.of((1, Fraction(-1, 3))),
    ))
    for coeffs in ((0, 1, 1, 0), (2, 1, 0, 1), (1, 2, -1, 3)):
        lhs, rhs = mobius_check(W, coeffs)
        assert lhs == rhs
    assert lhs != rational(0)
    rng = random.Random(37)
    for _ in range(6):
        W = random_wick_word(rng, rng.choice((4, 6)), max_order=1)
        lhs, rhs = mobius_check(W, (rational_point(rng), 1, 1, 3))
        assert lhs == rhs


def test_kernel_table_matches_reference_on_theta_expansions():
    rng = random.Random(101)
    checked = 0
    for _ in range(12):
        W = random_wick_word(rng, rng.randint(2, 5))
        checked += _assert_table_matches_reference(theta(LinearCombination.of(W)).words())
    assert checked > 200


def test_kernel_table_matches_reference_on_wick_expansions():
    rng = random.Random(103)
    checked = 0
    for _ in range(12):
        W = random_wick_word(rng, rng.randint(2, 6))
        expanded = LinearCombination.of(WickWord.unit())
        for group in W.groups:
            expanded = expanded * wick_expand(group)
        checked += _assert_table_matches_reference([W, *expanded.words()])
    assert checked > 200


def test_kernel_table_matches_reference_on_amplitude_kernels():
    # disc centres with every mode pair: the runs of powers an HS sweep asks for
    centres = [rational(0), rational(10), rational(Fraction(7, 2), -12), rational(-4, 9)]
    table = KernelTable()
    for a in centres:
        for b in centres:
            if a == b:
                continue
            for m1 in range(1, 9):
                for m2 in range(1, 9):
                    assert table(m1, a, m2, b) == _kernel_reference(m1, a, m2, b)
    # a power far beyond the run held, and a fresh table at the order guard
    z1, z2 = rational(Fraction(1, 3), Fraction(1, 7)), rational(Fraction(-2, 5))
    assert table(MAX_ORDER, z1, 7, z2) == _kernel_reference(MAX_ORDER, z1, 7, z2)
    assert KernelTable()(MAX_ORDER, z2, MAX_ORDER, z1) == _kernel_reference(MAX_ORDER, z2, MAX_ORDER, z1)


def test_kernel_table_matches_reference_on_radical_points():
    # the table refuses an exact point with a radical part, on either side
    z2 = rational(Fraction(1, 5))
    for z1 in (root(2) / 4, root(3) * rational(Fraction(1, 2), Fraction(1, 3))):
        for args in ((1, z1, 1, z2), (2, z2, 3, z1)):
            with pytest.raises(DomainError) as info:
                KernelTable()(*args)
            assert type(info.value) is DomainError and info.value.module == "correlator"
    # the kernel at the point sqrt(2)/4 + i/3, from scratch in the reference
    # ring, against the complex kernel
    z1, z2 = ref.root(2) / 4 + ref.rational(0, Fraction(1, 3)), ref.of(z2)
    assert not z1.is_gaussian()
    for m1 in range(1, 7):
        for m2 in range(1, 7):
            for a, p, b, w in ((m1, z1, m2, z2), (m2, z2, m1, z1)):
                c = Fraction(math.factorial(a + b - 1) * (-1 if a % 2 else 1), 2)
                exact = ref.rational(c) * (p - w) ** (-(a + b))
                floated = _kernel_reference(a, complex(p), b, complex(w))
                assert complex(exact) == pytest.approx(floated, rel=1e-12)


_wide = st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 6)
_orders = st.integers(min_value=1, max_value=12)


@settings(max_examples=80, deadline=None)
@given(_wide, _wide, _wide, _wide, _orders, _orders)
def test_kernel_table_matches_reference_on_wide_denominators(a, b, c, d, m1, m2):
    z1, z2 = rational(a, b), rational(c, d)
    assume(z1 != z2)
    table = KernelTable()
    for args in ((m1, z1, m2, z2), (m2, z2, m1, z1), (m1, z1, m2, z2)):
        assert table(*args) == _kernel_reference(*args), args


def test_kernel_table_keeps_one_value_per_order_sum():
    z1, z2 = rational(Fraction(1, 3), Fraction(-2, 7)), rational(Fraction(5, 4))
    table = KernelTable()
    for m1 in range(1, 9):
        for m2 in range(1, 9):
            assert table(m1, z1, m2, z2) == _kernel_reference(m1, z1, m2, z2)
    assert sorted(n for _, _, n in table._values) == list(range(2, 17))


def test_kernel_table_float_is_bit_for_bit():
    rng = random.Random(107)
    points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
    points.append(rational(Fraction(1, 2)))  # a mixed exact-float pair takes the float route
    table = KernelTable()
    for z1 in points:
        for z2 in points:
            if z1 is z2:
                continue
            for m1, m2 in ((1, 1), (2, 3), (5, 4), (60, 55)):
                value = table(m1, z1, m2, z2)
                expected = _kernel_reference(m1, z1, m2, z2)
                if isinstance(expected, complex):
                    assert value.real == expected.real and value.imag == expected.imag
                else:
                    assert value == expected


def test_kernel_table_checks():
    table = KernelTable()
    with pytest.raises(DomainError):
        table(0, 0, 1, 1)
    with pytest.raises(DomainError):
        table(1.0, 0, 1, 1)
    with pytest.raises(PoleError):
        table(1, Fraction(1, 3), 2, Fraction(1, 3))
    with pytest.raises(PoleError):
        table(1, 0.25, 2, 0.25)
    # an exact point and a float point of equal value, in both orders
    with pytest.raises(PoleError):
        table(1, Fraction(1, 2), 1, 0.5)
    with pytest.raises(PoleError):
        table(2, 0.5, 1, Fraction(1, 2))
    mixed = WickWord((WickGroup.of((1, Fraction(1, 2))), WickGroup.of((1, 0.5))))
    with pytest.raises(PoleError):
        expect_combo(mixed)
    started = time.perf_counter()
    with pytest.raises(ResourceError):
        table(MAX_ORDER + 1, 0, 1, 1)
    with pytest.raises(ResourceError):
        KernelTable()(10 ** 5, 0, 1, 1)
    assert time.perf_counter() - started < 1.0


def test_expect_combo_shares_one_table():
    # the words of a theta expansion share points; one table serves them all
    rng = random.Random(109)
    for _ in range(6):
        F = theta(LinearCombination.of(random_wick_word(rng, rng.randint(2, 5))))
        expected = scalars.ZERO
        for word, coeff in F.items():
            expected = expected + coeff * expect_combo(word)
        assert expect_combo(F) == expected


def _count_evaluations(monkeypatch) -> list:
    """Record the arguments of every exact kernel a table evaluates."""
    calls = []
    unsigned = KernelTable._unsigned

    def counted(self, *args):
        calls.append(args)
        return unsigned(self, *args)

    monkeypatch.setattr(KernelTable, "_unsigned", counted)
    return calls


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_gram_evaluates_each_same_side_kernel_once(monkeypatch):
    # 8 states of groups sized (2, 1, 1): 5 cross-group pairs each, asked
    # for by every entry in the state's row and column; a fresh table per
    # kernel evaluated 640
    def state(k):
        points = [rational(Fraction(j - 2, 5 + k), Fraction(2 * k - 7, 22)) for j in range(4)]
        ins = [(1 + (j + k) % 3, z) for j, z in enumerate(points)]
        return WickWord((WickGroup.of(ins[0], ins[1]), WickGroup.of(ins[2]), WickGroup.of(ins[3])))

    states = [state(k) for k in range(8)]
    calls = _count_evaluations(monkeypatch)
    report = gram(states)
    assert len(set(calls)) == len(calls) == 40
    # the values a fresh table per kernel gave, and the theta route
    flat = [(x.re, x.im) for row in report.matrix for x in row]
    assert _digest(flat) == "37d31711bc65af18fd83e1e8d24eba89e4886d294f22bbfdaaf099cb0aebf13a"
    for F, row in zip(states, report.matrix):
        for G, value in zip(states, row):
            assert value == expect_combo(theta(LinearCombination.of(F)) * LinearCombination.of(G))


def test_wick_expand_evaluates_each_pair_once(monkeypatch):
    # 6 distinct points: C(6, 2) = 15 pairs over 76 partial pairings, whose
    # pairs number 150 in all
    G = WickGroup.of(*((1 + j % 3, rational(Fraction(j, 7), Fraction(j * j % 5, 9))) for j in range(6)))
    calls = _count_evaluations(monkeypatch)
    combo = wick_expand(G)
    assert len(set(calls)) == len(calls) == 15
    # the values a fresh table per kernel gave
    terms = sorted(
        (
            tuple((ins.order, (ins.point.re, ins.point.im)) for g in w.groups for ins in g.insertions),
            (c.re, c.im),
        )
        for w, c in combo.items()
    )
    assert _digest(terms) == "1cdb790aa5abc3b34b28172ca981b04f11e2480d8f45dddb9b720a0647a42825"
    # the unit word collects the perfect matchings, each a product of three -C
    plain = WickWord.plain(*((ins.order, ins.point) for ins in G.insertions))
    assert combo.coeff(WickWord.unit()) == -expect_combo(plain)
