"""Reflection inner product, series oracle, Gram positivity."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeboson import hilbert, scalars
from freeboson.algebra import MAX_ORDER, Insertion, LinearCombination, WickGroup, WickWord, theta
from freeboson.correlator import KernelTable, _pair_series_eval, expect_combo, pair_sum
from freeboson.errors import DomainError, ResourceError, StructuralError
from freeboson.hilbert import GramReport, as_state, gram, inner, psd_check
from freeboson.sampling import random_state_group, random_wick_word
from freeboson.scalars import rational, root


def _via_reflection(F, G):
    """The literal reflection route <theta(F) G>; needs a zero-free F."""
    return expect_combo(theta(as_state(F).combo) * as_state(G).combo)


def test_inner_origin_base_case():
    g = WickGroup.of((1, 0))
    assert inner(g, g) == rational(Fraction(1, 2))


def test_inner_second_order_origin():
    g = WickGroup.of((2, 0))
    assert inner(g, g) == rational(1)


@pytest.mark.parametrize("m", range(1, 6))
def test_origin_norms(m):
    # squared norm of :[m,0]: is m ((m-1)!)^2 / 2
    g = WickGroup.of((m, 0))
    expected = Fraction(m * math.factorial(m - 1) ** 2, 2)
    assert inner(g, g) == rational(expected)


def test_inner_half_point():
    g = WickGroup.of((1, Fraction(1, 2)))
    assert inner(g, g) == rational(Fraction(8, 9))


def _pair_series(j, k):
    """d^j/du^j d^k/dw^k of (1/2)(1 - u w)^{-2} by repeated differentiation.

    Returned as (p, q, e, c) tuples for c * u^p w^q (1 - u w)^{-e};
    differentiation stays inside this family so the coefficients are exact
    rationals.  The reference for the closed form of ``_pair_series_eval``.
    """
    terms = {(0, 0, 2): Fraction(1, 2)}

    def diff(terms, wrt_u):
        out = {}

        def add(key, val):
            val = out.get(key, 0) + val
            if val:
                out[key] = val
            else:
                out.pop(key, None)

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


def test_pair_factor_closed_form_matches_differentiator():
    rng = random.Random(71)
    points = [rational(0)] + [
        rational(Fraction(rng.randint(-6, 6), 9), Fraction(rng.randint(-6, 6), 9))
        for _ in range(4)
    ]
    for m in range(1, 7):
        for ell in range(1, 7):
            series = _pair_series(m - 1, ell - 1)
            assert len(series) == min(m, ell)
            for z in points:
                for w in points:
                    u = z.conjugate()
                    base = scalars.ONE - u * w
                    expected = scalars.ZERO
                    for p, q, e, c in series:
                        expected = expected + rational(c) * u ** p * w ** q * base ** (-e)
                    assert _pair_series_eval(m, ell, u, w) == expected, (m, ell, z, w)


def test_origin_pair_factor_matches_differentiator():
    # u = 0, w = 0 and both: the single surviving Leibniz term
    rng = random.Random(73)
    points = [
        rational(Fraction(rng.randint(-6, 6), 9), Fraction(rng.randint(1, 6), 9))
        for _ in range(3)
    ]
    zero = scalars.ZERO
    for m in range(1, 7):
        for ell in range(1, 7):
            series = _pair_series(m - 1, ell - 1)
            cases = [(zero, zero)] + [(zero, p) for p in points] + [(p, zero) for p in points]
            for u, w in cases:
                expected = scalars.ZERO
                for p, q, e, c in series:
                    expected = expected + rational(c) * u ** p * w ** q * (scalars.ONE - u * w) ** (-e)
                assert _pair_series_eval(m, ell, u, w) == expected, (m, ell, u, w)
            for w in points:
                closed = (
                    Fraction(math.comb(m - 1, ell - 1) * math.factorial(ell - 1)
                             * math.factorial(m), 2) * w ** (m - ell)
                    if ell <= m else zero
                )
                assert _pair_series_eval(m, ell, zero, w) == closed
                assert _pair_series_eval(ell, m, w, zero) == closed


def test_series_matches_reflection_route():
    rng = random.Random(41)
    for arity in (1, 2, 3):
        for _ in range(4):
            L = random_state_group(rng, arity)
            R = random_state_group(rng, arity)
            expected = _via_reflection(L, R)
            assert inner(L, R) == expected


def test_multigroup_words_match_reflection_route():
    # two or more groups on each side: the only pairs that reach the
    # conj(C) left-left and C right-right weights of the word-pair hafnian
    rng = random.Random(59)
    nonzero = 0
    for _ in range(16):
        n_left = rng.randint(3, 5)
        n_right = rng.choice([n for n in (3, 4, 5) if (n - n_left) % 2 == 0])
        F = random_wick_word(rng, n_left, max_group=2)
        G = random_wick_word(rng, n_right, max_group=2)
        value = inner(F, G)
        assert value == _via_reflection(F, G)
        nonzero += bool(value)
    assert nonzero >= 8


def test_arity_mismatch_vanishes():
    a = WickGroup.of((1, Fraction(1, 3)))
    b = WickGroup.of((1, Fraction(1, 4)), (1, Fraction(-1, 4)))
    assert inner(a, b) == rational(0)


def test_inner_antilinear_left():
    g = WickGroup.of((1, Fraction(1, 3)))
    h = WickGroup.of((2, Fraction(-1, 5)))
    c = rational(Fraction(1, 2), Fraction(2, 7))
    F = LinearCombination.of(WickWord.single_group(g), c)
    assert inner(F, h) == c.conjugate() * inner(g, h)
    G = LinearCombination.of(WickWord.single_group(h), c)
    assert inner(g, G) == c * inner(g, h)


def test_inner_vacuum_cases():
    vac = WickWord.unit()
    assert inner(vac, vac) == rational(1)
    assert inner(vac, WickGroup.of((1, 0))) == rational(0)
    assert inner(WickGroup.of((2, 0)), vac) == rational(0)


_DISC_POINTS = tuple(
    (Fraction(a, 4), Fraction(b, 4)) for a in range(-3, 4) for b in range(-3, 4) if a * a + b * b < 16
)


@st.composite
def _disc_states(draw, floated=st.booleans()):
    """A combination of two to four words with points in the open unit disc
    (the origin included), exact or all float as ``floated`` draws, and
    Gaussian coefficients."""
    floated = draw(floated)
    combo = LinearCombination.zero()
    for _ in range(draw(st.integers(2, 4))):
        points = draw(st.lists(st.sampled_from(_DISC_POINTS), min_size=1, max_size=5, unique=True))
        groups: dict = {}
        for re, im in points:
            point = complex(re, im) if floated else rational(re, im)
            groups.setdefault(draw(st.integers(0, 2)), []).append(
                Insertion(draw(st.integers(1, 3)), point)
            )
        word = WickWord(tuple(WickGroup(tuple(g)) for g in groups.values()))
        re, im = (Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))) for _ in range(2))
        combo = combo + LinearCombination.of(word, complex(re, im) if floated else rational(re, im))
    return combo


@settings(max_examples=80, deadline=None)
@given(_disc_states())
def test_expectation_is_the_inner_product_with_the_vacuum(F):
    # <F> = (1, F): the vacuum on the left reflects to itself
    assert inner(WickWord.unit(), F) == expect_combo(F)


def _origin_multigroup_states():
    half, third = Fraction(1, 2), Fraction(1, 3)
    w1 = WickWord((WickGroup.of((1, 0)), WickGroup.of((1, half))))
    w2 = WickWord((WickGroup.of((2, 0), (1, 0)), WickGroup.of((1, rational(third, third)))))
    w3 = WickWord((WickGroup.of((1, 0)), WickGroup.of((1, rational(0, half)), (2, -half))))
    combo = LinearCombination.of(w1) + LinearCombination.of(w3, rational(third, 2))
    return [w1, w2, w3, combo]


def test_origin_multigroup_left_state():
    # no reflection route on the left; Hermitian symmetry moves theta onto G
    rng = random.Random(61)
    states = _origin_multigroup_states()
    for F in states:
        for _ in range(3):
            G = random_wick_word(rng, rng.randint(1, 4), max_group=2)
            expected = _via_reflection(G, F).conjugate()
            assert inner(F, G) == expected
    # :[1,0]: :[1,1/2]: against itself: left-left and right-right pairs
    # give (-2)(-2), the two cross matchings (1/2)(8/9) and (1/2)(1/2)
    assert inner(states[0], states[0]) == rational(Fraction(169, 36))
    report = gram(states)
    for i in range(report.size):
        for j in range(report.size):
            assert report.matrix[i][j] == report.matrix[j][i].conjugate()
    assert report.hermiticity_defect == 0.0
    assert report.psd


def test_state_validation():
    with pytest.raises(DomainError):
        as_state(WickGroup.of((1, 2)))  # outside the unit disc
    w = WickWord((WickGroup.of((1, Fraction(1, 3))), WickGroup.of((2, Fraction(1, 3)))))
    with pytest.raises(DomainError):
        as_state(w)  # coinciding points across groups
    # an exact point and a float point of one value coincide too
    mixed = WickWord((WickGroup.of((1, Fraction(1, 2))), WickGroup.of((1, 0.5))))
    with pytest.raises(DomainError) as caught:
        inner(mixed, WickGroup.of((1, 0.3)))
    assert caught.value.module == "hilbert"


def test_gram_refuses_an_order_above_the_guard():
    state = WickGroup.of((MAX_ORDER + 1, Fraction(1, 2)))
    with pytest.raises(ResourceError) as caught:
        gram([WickGroup.of((1, Fraction(1, 3))), state])
    assert caught.value.module == "hilbert"


def test_gram_single_state():
    report = gram([WickGroup.of((1, Fraction(1, 2)))])
    assert report.size == 1
    assert report.matrix[0][0] == rational(Fraction(8, 9))
    assert report.psd
    assert report.hermiticity_defect == 0.0


def test_gram_fock_normalized_origin_states():
    # :[m,0]: scaled by sqrt(2/m)/(m-1)! gives an orthonormal family
    states = []
    for m in range(1, 5):
        coeff = root(Fraction(2, m)) * Fraction(1, math.factorial(m - 1))
        states.append(
            LinearCombination.of(WickWord.single_group(WickGroup.of((m, 0))), coeff)
        )
    report = gram(states)
    for i in range(4):
        for j in range(4):
            assert report.matrix[i][j] == rational(1 if i == j else 0)
    assert report.psd
    assert report.min_eigenvalue == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(_disc_states(st.just(False)), _disc_states(st.just(False)))
def test_pair_sum_is_hermitian(F, G):
    # (G, F) = conj((F, G)) exactly: the identity ``gram`` mirrors by
    assert pair_sum(G, F, KernelTable()) == pair_sum(F, G, KernelTable()).conjugate()


def _seeded_states(seed):
    rng = random.Random(seed)
    states = [random_state_group(rng, rng.randint(1, 2)) for _ in range(4)]
    states += [random_wick_word(rng, rng.randint(2, 4), max_group=2) for _ in range(3)]
    return states + _origin_multigroup_states()


@pytest.mark.parametrize("seed", [53, 54])
def test_gram_matches_the_full_matrix(seed):
    # the oracle computes all n^2 entries, each with a table of its own
    combos = [as_state(s).combo for s in _seeded_states(seed)]
    full = tuple(tuple(scalars.ZERO + pair_sum(a, b, KernelTable()) for b in combos)
                 for a in combos)
    report = gram(combos)
    assert report.matrix == full
    assert report.hermiticity_defect == 0.0
    assert report.psd


def _float_points(state):
    """The state with every point as a complex number."""
    return sum(
        (LinearCombination.of(WickWord(tuple(
            WickGroup(tuple(Insertion(ins.order, complex(ins.point)) for ins in g.insertions))
            for g in word.groups)), complex(c))
         for word, c in as_state(state).combo.items()),
        LinearCombination.zero(),
    )


def test_gram_mirrors_exact_entries_only(monkeypatch):
    calls = []

    def counted(F, G, kernels):
        calls.append((F, G))
        return pair_sum(F, G, kernels)

    monkeypatch.setattr(hilbert, "pair_sum", counted)
    exact = _seeded_states(57)[:5]
    n = len(exact)
    floated = [_float_points(s) for s in exact]
    # exact points, each state with a float coefficient
    float_coeff = [LinearCombination.of(WickWord.single_group(s), 0.5) for s in exact[:4]]
    float_coeff.append(LinearCombination.of(WickWord.unit(), 0.5))
    # one state with a float coefficient: only its row and column are float
    one_float = exact[:4] + [float_coeff[0]]
    for states, expected in ((exact, n * (n + 1) // 2), (floated, n * n),
                             (float_coeff, n * n), (one_float, 4 * 5 // 2 + 2 * n - 1)):
        calls.clear()
        report = gram(states)
        assert len(calls) == expected
        for i in range(n):
            for j in range(n):
                value = report.matrix[i][j]
                assert isinstance(value, scalars.Exact) == isinstance(report.matrix[j][i],
                                                                      scalars.Exact)
                if not isinstance(value, scalars.Exact):
                    # a float entry is computed, never mirrored
                    assert (as_state(states[i]).combo, as_state(states[j]).combo) in calls


def test_gram_duplicate_state_still_psd():
    g = WickGroup.of((1, Fraction(1, 3)))
    report = gram([g, g])
    assert report.psd
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_psd_check_flags_negative_matrix():
    report = psd_check(((rational(1), rational(2)), (rational(2), rational(1))), 1e-10)
    assert isinstance(report, GramReport)
    assert not report.psd
    assert report.min_eigenvalue == pytest.approx(-1.0)
    assert report.witness is not None


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(StructuralError):
        psd_check(((rational(1), rational(1)), (rational(0), rational(1))), 1e-10)
    # a float matrix, as ``gram`` computes it in float mode, is checked too
    with pytest.raises(StructuralError):
        psd_check(((1 + 0j, 0.5 + 0.25j), (0.5 + 0.25j, 1 + 0j)), 1e-10)


def test_gram_empty():
    report = gram([])
    assert report.size == 0
    assert (report.min_eigenvalue, report.hermiticity_defect, report.psd) == (0.0, 0.0, True)
