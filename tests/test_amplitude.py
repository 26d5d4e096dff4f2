"""Disc configurations, amplitude entries, truncated HS sums and the bound."""
import cmath
import math
import random
import time
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from freeboson import scalars
from freeboson.amplitude import (
    Disc,
    DiscConfiguration,
    amplitude_entry,
    MAX_DISCS,
    MAX_TUPLES,
    _PairMatrix,
    _first_power,
    _hs_traces,
    _matmul,
    _weight_table,
    hs_bound,
    hs_truncated,
)
from freeboson.errors import (
    ConfigurationError,
    RegimeError,
    ResourceError,
)
from freeboson.fock import FockIndex
from freeboson.scalars import ONE, ZERO, as_scalar, rational, root
from fock_reference import basis
import hs_reference


def _standard() -> DiscConfiguration:
    return DiscConfiguration((
        Disc(rational(0), ONE),
        Disc(rational(10), ONE),
    ))


def test_disc_validation():
    with pytest.raises(ConfigurationError):
        Disc(rational(0), rational(0))
    assert Disc(rational(0), rational(0, 2)).radius_sq() == rational(4)


def test_configuration_needs_two_discs():
    with pytest.raises(ConfigurationError):
        DiscConfiguration((Disc(rational(0), ONE),))


def test_overlapping_discs_rejected():
    with pytest.raises(ConfigurationError):
        DiscConfiguration((Disc(rational(0), ONE), Disc(rational(1), ONE)))


def test_tangent_discs_rejected():
    # |a1-a2| = 2 equals R1+R2: touching counts as not disjoint
    with pytest.raises(ConfigurationError):
        DiscConfiguration((Disc(rational(0), ONE), Disc(rational(2), ONE)))


def test_configuration_statistics():
    cfg = _standard()
    assert cfg.r == 2
    assert cfg.center_gap_sq() == 100
    assert cfg.max_radius_sq() == 1
    assert cfg.hs_regime()


@pytest.mark.parametrize("exact", [True, False])
def test_center_gap_is_the_least_pair_gap(exact):
    # the gap kept at construction is the minimum over every disc pair
    rng = random.Random(11)
    centers = [complex(8 * k + rng.randint(0, 3), rng.randint(-3, 3)) for k in range(6)]
    discs = tuple(
        Disc(rational(int(c.real), int(c.imag)) if exact else c,
             rational(Fraction(1, 4)) if exact else complex(0.25))
        for c in centers
    )
    cfg = DiscConfiguration(discs)
    expected = min(
        scalars.real_value(scalars.abs_sq(a.center - b.center))
        for i, a in enumerate(discs) for b in discs[i + 1:]
    )
    assert cfg.center_gap_sq() == expected
    assert type(cfg.center_gap_sq()) is (Fraction if exact else float)


def test_entry_hand_values():
    cfg = _standard()
    assert amplitude_entry(cfg, ({1: 1}, {1: 1})) == rational(Fraction(1, 100))
    assert amplitude_entry(cfg, ({1: 1}, {2: 1})) == root(2) * Fraction(-1, 1000)


def test_radical_centres_are_refused_and_radical_scales_kept():
    with pytest.raises(ConfigurationError) as info:
        Disc(root(2) / 4, ONE)
    assert info.value.module == "amplitude"
    # q enters only products, so it may carry a radical
    qa, qb = root(2) / 8, root(3) / 9
    cfg = DiscConfiguration((Disc(rational(0), qa), Disc(rational(1, 1), qb)))
    # C(1, 0, 1, 1 + i) = -(1/2)/(-(1 + i))^2 = -1/(4i) = i/4
    c = rational(0, Fraction(1, 4))
    assert amplitude_entry(cfg, ({1: 1}, {1: 1})) == -2 * qa * qb * c
    assert amplitude_entry(cfg, ({1: 1}, {1: 1})) == rational(0, Fraction(-1, 144)) * root(6)
    floated = DiscConfiguration(tuple(Disc(complex(d.center), complex(d.q)) for d in cfg.discs))
    exact_rows = hs_truncated(cfg, 3, 4)
    float_rows = hs_truncated(floated, 3, 4)
    for exact, approx in zip(exact_rows, float_rows):
        assert exact.partial_sum.is_rational()
        assert complex(exact.partial_sum) == pytest.approx(approx.partial_sum, rel=1e-12)


def test_configuration_disc_guard():
    discs = [Disc(rational(8 * i), rational(Fraction(1, 8))) for i in range(MAX_DISCS + 1)]
    started = time.perf_counter()
    with pytest.raises(ResourceError) as info:
        DiscConfiguration(tuple(discs))
    assert info.value.module == "amplitude"
    assert time.perf_counter() - started < 1.0
    assert DiscConfiguration(tuple(discs[:MAX_DISCS])).r == MAX_DISCS


def test_configuration_reads_each_radius_once(monkeypatch):
    # |q|^2 once per disc: the pair walk, the regime test and the exact HS
    # sweep reuse the radii kept at construction
    calls = []
    radius_sq = Disc.radius_sq
    monkeypatch.setattr(Disc, "radius_sq", lambda disc: calls.append(disc) or radius_sq(disc))
    discs = tuple(
        Disc(rational(8 * (k % 8), 8 * (k // 8)), rational(Fraction(1, 8), Fraction(k % 3, 8)))
        for k in range(MAX_DISCS)
    )
    cfg = DiscConfiguration(discs)
    assert len(calls) == MAX_DISCS == 64
    assert cfg.max_radius_sq() == Fraction(5, 64)
    assert cfg.hs_regime() is False
    assert len(calls) == MAX_DISCS
    for r in (2, 3):
        small = _seeded_config(19, r, 8, 3)
        calls.clear()
        hs_truncated(small, 3, 4)
        assert calls == []


def test_entry_odd_total_vanishes():
    cfg = _standard()
    assert amplitude_entry(cfg, ({1: 1}, {})) == scalars.ZERO
    assert amplitude_entry(cfg, ({1: 2}, {3: 1})) == scalars.ZERO


def test_entry_vacuum():
    cfg = _standard()
    assert amplitude_entry(cfg, ({}, {})) == ONE


def test_entry_single_disc_support_vanishes():
    # all insertions on one disc leave no cross-disc matching
    cfg = _standard()
    assert amplitude_entry(cfg, ({1: 2}, {})) == scalars.ZERO


def test_entry_symmetric_under_disc_swap():
    cfg = _standard()
    swapped = DiscConfiguration((Disc(rational(10), ONE), Disc(rational(0), ONE)))
    for left, right in (({1: 1}, {1: 1}), ({1: 1}, {2: 1}), ({1: 2}, {1: 2})):
        assert amplitude_entry(cfg, (left, right)) == amplitude_entry(swapped, (right, left))


def test_entry_index_count_checked():
    with pytest.raises(ConfigurationError):
        amplitude_entry(_standard(), ({1: 1},))


def test_float_backend_agrees():
    exact_cfg = _standard()
    float_cfg = DiscConfiguration((
        Disc(complex(0), complex(1)),
        Disc(complex(10), complex(1)),
    ))
    for indices in (({1: 1}, {1: 1}), ({1: 1}, {2: 1}), ({1: 2}, {1: 2})):
        lhs = complex(amplitude_entry(exact_cfg, indices))
        rhs = amplitude_entry(float_cfg, indices)
        assert abs(lhs - rhs) < 1e-12


def _amplitude_apply(config: DiscConfiguration, vectors) -> scalars.Scalar:
    """Reference: the multilinear extension of the entry tensor to finite
    vectors, summed over their index tuples on one pair matrix."""
    pair_matrix = _PairMatrix(config)
    total = scalars.zero_scalar(pair_matrix.exact)
    for terms in product(*(v.items() for v in vectors)):
        coeff = scalars.one_scalar(pair_matrix.exact)
        for _, c in terms:
            coeff = coeff * c
        total = total + coeff * pair_matrix.entry([idx for idx, _ in terms])
    return total


def test_amplitude_apply_matches_entry():
    cfg = _standard()
    v = basis({1: 1})
    w = basis({2: 1})
    assert _amplitude_apply(cfg, [v, w]) == amplitude_entry(cfg, ({1: 1}, {2: 1}))


def test_amplitude_apply_is_linear_not_sesquilinear():
    cfg = _standard()
    c = rational(0, 1)  # the imaginary unit as a coefficient
    v = basis({1: 1}, c)
    w = basis({1: 1})
    assert _amplitude_apply(cfg, [v, w]) == c * amplitude_entry(cfg, ({1: 1}, {1: 1}))


def _hs_by_tuples(config: DiscConfiguration, M: int, N: int) -> list:
    """Reference sweep: (tuple_count, partial_sum) per level, summing
    |amplitude_entry|^2 over every index tuple, level by level."""
    r = config.r
    by_particles = [
        [FockIndex.of(Counter(c)) for c in combinations_with_replacement(range(1, M + 1), p)]
        for p in range(N + 1)
    ]

    def tuples_of_total(t: int, slot: int = 0):
        if slot == r - 1:
            for idx in by_particles[t]:
                yield (idx,)
            return
        for p in range(t + 1):
            for idx in by_particles[p]:
                for rest in tuples_of_total(t - p, slot + 1):
                    yield (idx,) + rest

    rows = []
    running = scalars.zero_scalar(config.is_exact())
    seen = 0
    for t in range(N + 1):
        for tup in tuples_of_total(t):
            value = amplitude_entry(config, tup)
            running = running + value * value.conjugate()
            seen += 1
        rows.append((seen, running))
    return rows


def _seeded_config(seed: int, r: int, spacing: int, max_q: int, exact: bool = True, radicand: int = 1):
    """r discs on a jittered grid with complex scales |Re q|, |Im q| <= max_q/8,
    each times sqrt(radicand) on exact discs."""
    rng = random.Random(seed)
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    rng.shuffle(cells)
    discs = []
    for cx, cy in cells[:r]:
        a = (Fraction(cx * spacing) + Fraction(rng.randint(-1, 1), 4),
             Fraction(cy * spacing) + Fraction(rng.randint(-1, 1), 4))
        q = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, max_q), 8) for _ in range(2))
        if exact:
            discs.append(Disc(rational(*a), rational(*q) * root(radicand)))
        else:
            discs.append(Disc(complex(*map(float, a)), complex(*map(float, q))))
    return DiscConfiguration(tuple(discs))


# (seed, discs, spacing, max_q, M, N): spacing 8 lies inside the regime,
# spacing 3 with scales up to 4/8 outside it
_ORACLE_CASES = [
    (1, 2, 8, 3, 4, 6),
    (2, 2, 3, 4, 3, 6),
    (3, 3, 8, 3, 2, 6),
    (4, 3, 3, 4, 3, 5),
    (5, 2, 3, 4, 1, 6),
]


@pytest.mark.parametrize("seed,r,spacing,max_q,M,N", _ORACLE_CASES)
def test_hs_truncated_matches_tuple_sweep(seed, r, spacing, max_q, M, N):
    cfg = _seeded_config(seed, r, spacing, max_q)
    rows = hs_truncated(cfg, M, N)
    assert [(row.tuple_count, row.partial_sum) for row in rows] == _hs_by_tuples(cfg, M, N)


def test_hs_truncated_oracle_cases_cover_both_regimes():
    regimes = {_seeded_config(s, r, sp, q).hs_regime() for s, r, sp, q, _, _ in _ORACLE_CASES}
    assert regimes == {True, False}


def test_hs_truncated_float_matches_tuple_sweep():
    cfg = _seeded_config(6, 3, 3, 4, exact=False)
    rows = hs_truncated(cfg, 3, 6)
    for row, (count, value) in zip(rows, _hs_by_tuples(cfg, 3, 6), strict=True):
        assert row.tuple_count == count
        assert abs(row.partial_sum - value) <= 1e-12 * abs(value)
        assert row.partial_sum.imag == 0.0


def _radical_config() -> DiscConfiguration:
    """Three discs whose scales carry the radicals sqrt(2) and sqrt(3)."""
    return DiscConfiguration((
        Disc(rational(0), root(2) / 4),
        Disc(rational(5), rational(Fraction(1, 8), Fraction(1, 8)) * root(3)),
        Disc(rational(0, 6), rational(Fraction(1, 5), Fraction(-1, 10))),
    ))


# (seed, discs, spacing, max_q, M, kmax, radicand): kmax = N // 2 of a sweep
# to N = 9, or to N = 10-13 for kmax 5-6.  Four discs sum each block of Y over two other discs; the
# radical cases multiply every scale by sqrt(radicand).
_TRACE_CASES = [
    (11, 2, 8, 3, 5, 4, 1),
    (12, 2, 3, 4, 4, 3, 1),
    (13, 3, 8, 3, 4, 4, 1),
    (14, 3, 3, 4, 3, 4, 1),
    (15, 4, 8, 3, 3, 4, 1),
    (16, 4, 3, 4, 2, 2, 1),
    (21, 4, 8, 3, 3, 4, 2),
    (22, 2, 8, 3, 4, 4, 3),
    # kmax 5-6 reach Z_3 = Z_2 Y, the first power past the square
    (22, 2, 8, 3, 3, 6, 1),
    (13, 3, 8, 3, 3, 5, 1),
    (15, 4, 8, 3, 2, 6, 1),
    (21, 4, 8, 3, 2, 5, 2),
]


@pytest.mark.parametrize(
    "seed,r,spacing,max_q,M,kmax,radicand",
    _TRACE_CASES,
    ids=["-".join(map(str, case[:6])) + (f"-sqrt{case[6]}" if case[6] > 1 else "") for case in _TRACE_CASES],
)
def test_hs_traces_equal_the_full_product_oracle(seed, r, spacing, max_q, M, kmax, radicand):
    cfg = _seeded_config(seed, r, spacing, max_q, radicand=radicand)
    assert _hs_traces(cfg, M, kmax) == hs_reference.hs_traces(cfg, M, kmax)


@pytest.mark.parametrize("seed,r", [(23, 2), (24, 3)])
def test_hs_first_trace_is_a_convolution_over_order_sums(seed, r):
    # tr(A') from rationals per order sum, against the sum of m_a m_b |K'_ab|^2
    # over every slot pair, at a mode cutoff where the order sums reach 80
    cfg = _seeded_config(seed, r, 8, 3)
    assert _hs_traces(cfg, 40, 1) == hs_reference.hs_traces(cfg, 40, 1)


def _scales(config: DiscConfiguration, M: int) -> list:
    """s = q^m / m! over the r*M (disc, mode) slots."""
    return [disc.q ** m / math.factorial(m) for disc in config.discs for m in range(1, M + 1)]


def test_hs_traces_keep_a_radical_scale_exact():
    cfg = _radical_config()
    traces = _hs_traces(cfg, 4, 4)
    assert traces == hs_reference.hs_traces(cfg, 4, 4)
    assert all(t.is_rational() for t in traces)
    # Y = S^-1 A' S is built from the bare kernels: no entry carries the
    # radicals of the scales, the mirrored ones below the diagonal included.
    # _first_power gives Y's Hermitian core, and Y is the core with row a
    # times W_a.
    core, weights = _first_power(cfg, *_weight_table(cfg, 4))
    y = [[w * x for x in row] for w, row in zip(weights, core)]
    modes, left, right = hs_reference.left_and_right(cfg, 4)
    power = hs_reference.matmul(left, right, ZERO)
    s = _scales(cfg, 4)
    n = len(modes)
    assert all(y[a][b] * s[b] == power[a][b] * s[a] for a in range(n) for b in range(n))
    assert all(x.is_gaussian() for row in y for x in row)
    assert {x.s for row in power for x in row} >= {2, 3, 6}
    # the mirrored product Z_2 = core Y is the full product
    assert _matmul(core, y, ZERO) == hs_reference.matmul(core, y, ZERO)


def test_hs_traces_float_bits_equal_the_full_product_oracle():
    for seed, r in ((17, 2), (18, 3), (25, 4)):
        cfg = _seeded_config(seed, r, 3, 4, exact=False)
        got, want = _hs_traces(cfg, 4, 4), hs_reference.hs_traces(cfg, 4, 4)
        assert [repr(t) for t in got] == [repr(t) for t in want]


def test_hs_traces_sum_half_of_each_exact_power(monkeypatch):
    # N = 8 at M = 4: Y and Y^2, and three traces.  The traces multiply no
    # Exacts, and an entry below the diagonal is a mirror.  Y sums, for its
    # entries on and after the diagonal, M products per disc other than the
    # discs of the two slots; Y^2 sums n products for each of its n(n + 1)/2
    # entries.  At two discs Y is the block of disc 0 alone, so n = M: 10
    # entries of 4 products, twice.  At four discs an entry of Y sums over
    # three other discs on one disc and two across.  Nothing else: the
    # weights and tr(A') read the |q|^2 and the |a_i - a_j|^2 that the
    # configuration kept.
    M, kmax = 4, 4
    cases = [
        (_seeded_config(19, 2, 8, 3), 10 * 4 + 10 * 4),
        (_seeded_config(19, 3, 8, 3), 3 * 10 * 8 + 3 * 16 * 4 + 78 * 12),
        (_seeded_config(19, 4, 8, 3), 4 * 10 * 12 + 6 * 16 * 8 + 136 * 16),
    ]
    products = []
    multiply = scalars.Exact.__mul__

    def counted(a, b):
        if isinstance(b, scalars.Exact):
            products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(scalars.Exact, "__mul__", counted)
    for config, want in cases:
        products.clear()
        _hs_traces(config, M, kmax)
        assert len(products) == want, config.r


def test_float_powers_sum_every_entry():
    # a float entry is never mirrored: n^2 sums, each over the terms whose
    # two factors are nonzero
    products = []

    class Counted(complex):
        def __mul__(self, other):
            products.append(1)
            return complex(self) * other

    cfg = _seeded_config(20, 3, 8, 3, exact=False)
    modes, left, right = hs_reference.left_and_right(cfg, 3)
    n = len(modes)
    counted_left = [[Counted(v) for v in row] for row in left]
    power = _matmul(counted_left, right, 0j)
    assert len(products) == sum(
        1 for i in range(n) for j in range(n) for l in range(n) if left[i][l] and right[l][j]
    )
    assert [repr(v) for row in power for v in row] == [
        repr(v) for row in hs_reference.matmul(left, right, 0j) for v in row
    ]


def _coefficient_kernel(phi_a, dphi_a, phi_b, dphi_b, modes: int):
    """K'_ab = (1/(m_a m_b)) [zeta^(m_a - 1) eta^(m_b - 1)]
    phi_a'(zeta) phi_b'(eta) / (phi_a(zeta) - phi_b(eta))^2 for modes 1..modes,
    the kernel of two discs of any parametrisations phi, read by a 64 x 64
    FFT on the circles |zeta| = |eta| = 0.9."""
    nodes, radius = 64, 0.9
    t = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    zeta, eta = t[:, None], t[None, :]
    f = dphi_a(zeta) * dphi_b(eta) / (phi_a(zeta) - phi_b(eta)) ** 2
    powers = radius ** np.add.outer(np.arange(nodes), np.arange(nodes))
    coefficients = np.fft.fft2(f) / nodes ** 2 / powers
    m = np.arange(1, modes + 1)
    return coefficients[:modes, :modes] / np.outer(m, m)


def test_pair_matrix_sews_across_a_glued_circle():
    # Glue disc D = 0 of A to disc E = 0 of B by zeta_D = 1/zeta_E.  On the
    # glued sphere B's disc 1 is eta -> g(3 + 2 eta/5) inside D, with
    # g(w) = a_D + q_D q_E/(w - a_E), and the kernel between A's disc 1 and
    # it is the sum over the modes k of the glued circle
    #     K'_glued(a, b) = - sum_k k K'_A(a, (D, k)) K'_B((E, k), b).
    # The k-th term falls like (3/20)^k (1/3)^k = 20^-k up to a power of k,
    # so 40 modes leave a tail far below the FFT's rounding; the opposite
    # sign misses by O(1).
    a = _PairMatrix(DiscConfiguration((
        Disc(rational(0), rational(Fraction(3, 10))), Disc(rational(2), rational(Fraction(1, 2))),
    )))
    b = _PairMatrix(DiscConfiguration((
        Disc(rational(0), ONE), Disc(rational(3), rational(Fraction(2, 5))),
    )))
    a_d, q_d, a_e, q_e = 0.0, 0.3, 0.0, 1.0

    def g(w):
        return a_d + q_d * q_e / (w - a_e)

    def dg(w):
        return -q_d * q_e / (w - a_e) ** 2

    glued = _coefficient_kernel(
        lambda z: 2 + z / 2, lambda z: np.full_like(z, 0.5),
        lambda e: g(3 + 0.4 * e), lambda e: 0.4 * dg(3 + 0.4 * e),
        6,
    )
    sewn = np.array([
        [-sum(k * complex(a(1, m_a, 0, k)) * complex(b(0, k, 1, m_b)) for k in range(1, 41))
         for m_b in range(1, 7)]
        for m_a in range(1, 7)
    ])
    np.testing.assert_allclose(glued, sewn, rtol=1e-10, atol=0)
    assert not np.allclose(glued, -sewn, rtol=0.5, atol=0)


def test_hs_truncated_hand_value():
    # vacuum 1 plus |entry({1: 1}, {1: 1})|^2 = (1/100)^2
    rows = hs_truncated(_standard(), 1, 2)
    assert rows[2].partial_sum == rational(Fraction(10001, 10000))


def test_hs_truncated_m16_n4_budget():
    # comb(36, 4) = 58905 tuples, under the default guard
    start = time.perf_counter()
    rows = hs_truncated(_standard(), 16, 4)
    assert time.perf_counter() - start < 3.0
    assert rows[-1].tuple_count == 58905


def test_hs_truncated_worst_admitted_shape_budget():
    # the slowest truncation under MAX_TUPLES: N = 2 at 2 discs, M = 220, so
    # only tr(A'), over order sums up to 440
    config = DiscConfiguration((
        Disc(rational(0), rational(Fraction(1, 2))),
        Disc(rational(5), rational(Fraction(1, 3), Fraction(1, 4))),
    ))
    start = time.perf_counter()
    rows = hs_truncated(config, 220, 2)
    assert time.perf_counter() - start < 2.0
    assert rows[-1].tuple_count == math.comb(442, 2) <= MAX_TUPLES
    assert rows[-1].partial_sum.rational() > 1


def test_hs_truncated_order_guard():
    # no kernel is built below two insertions, so a huge M is fine there
    assert hs_truncated(_standard(), 3000, 1)[-1].partial_sum == ONE
    # comb(6002, 2) tuples: refused before any kernel is built
    with pytest.raises(ResourceError):
        hs_truncated(_standard(), 3000, 2)


def test_entry_guards_before_prefactor():
    # a huge mode or count is refused before its factorial is built
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        amplitude_entry(_standard(), ({100000: 1}, {1: 1}))
    with pytest.raises(ResourceError):
        amplitude_entry(_standard(), ({1: 100000}, {1: 100000}))
    assert time.perf_counter() - start < 1.0


def test_hs_truncated_rows():
    cfg = _standard()
    rows = hs_truncated(cfg, 2, 2)
    assert [r.total_insertions for r in rows] == [0, 1, 2]
    assert rows[0].partial_sum == ONE  # vacuum-vacuum entry
    assert rows[1].partial_sum == rows[0].partial_sum  # odd levels add nothing
    assert rows[2].partial_sum.rational() > 1
    # counts are cumulative
    assert [r.tuple_count for r in rows] == sorted(r.tuple_count for r in rows)


def test_hs_truncated_m4_n4_count():
    rows = hs_truncated(_standard(), 4, 4)
    assert rows[-1].tuple_count == 495


def test_hs_truncated_monotone_and_bounded():
    cfg = _standard()
    bound = hs_bound(cfg).rational()
    prev = None
    for row in hs_truncated(cfg, 4, 4):
        value = row.partial_sum.rational()
        assert value <= bound
        if prev is not None:
            assert value >= prev
        prev = value


@pytest.mark.parametrize("r,M,N", [(2, 3, 4), (3, 2, 4), (2, 1, 6)])
def test_hs_truncated_tuple_counts_closed_form(r, M, N):
    # tuples through level t: comb(r*M + t, t), the guard's count
    cfg = DiscConfiguration(tuple(Disc(rational(10 * j), ONE) for j in range(r)))
    rows = hs_truncated(cfg, M, N)
    assert [row.tuple_count for row in rows] == [math.comb(r * M + t, t) for t in range(N + 1)]


def _annulus_q(config: DiscConfiguration) -> float:
    """rho^2 for two discs: rho = 2/(s + sqrt(s^2 - 4)) with
    s = (d^2 - R1^2 - R2^2)/(R1 R2), the modulus of the annulus between the
    boundary circles (a form free of cancellation when s is large)."""
    a, b = config.discs
    d_sq = scalars.real_value(scalars.abs_sq(a.center - b.center))
    r1_sq, r2_sq = (scalars.real_value(disc.radius_sq()) for disc in (a, b))
    s = float(d_sq - r1_sq - r2_sq) / math.sqrt(r1_sq * r2_sq)
    return (2 / (s + math.sqrt(s * s - 4))) ** 2


@pytest.mark.parametrize("discs,M", [
    (((0, 1), (10, 1)), 10),
    (((0, 1), (rational(7, 3), rational(Fraction(1, 2), Fraction(1, 2)))), 10),
    # outside the regime d/R > 4 sqrt(2)
    (((0, 1), (4, 1)), 16),
], ids=["unit-10-apart", "complex-scale", "unit-4-apart"])
def test_hs_truncated_two_disc_closed_form(discs, M):
    # two discs: the level-2n sum tends to q^n / prod_{k<=n} (1 - q^k) and
    # the full sum to prod_m (1 - q^m)^(-1), q = rho^2 (Euler's identity)
    config = DiscConfiguration(tuple(Disc(as_scalar(a), as_scalar(q)) for a, q in discs))
    rows = hs_truncated(config, M, 4)
    q = _annulus_q(config)
    sums = [row.partial_sum.rational() for row in rows]
    denominator = 1.0
    for n in (1, 2):
        denominator *= 1 - q ** n
        increment = float(sums[2 * n] - sums[2 * n - 2])
        assert increment == pytest.approx(q ** n / denominator, rel=1e-12)
    limit = 1 / math.prod(1 - q ** m for m in range(1, 200))
    assert all(value < limit for value in sums)


def _quadratic_mul(x, y, D):
    """(a + b sqrt(D)) (c + e sqrt(D)) on pairs of rationals."""
    return (x[0] * y[0] + x[1] * y[1] * D, x[0] * y[1] + x[1] * y[0])


def _quadratic_positive(x, D) -> bool:
    """a + b sqrt(D) > 0, decided exactly: with a and b of opposite signs,
    the sign follows from comparing a^2 with b^2 D."""
    a, b = x
    if a >= 0 and b >= 0:
        return a > 0 or b > 0
    if a <= 0 and b <= 0:
        return False
    return a * a > b * b * D if a > 0 else b * b * D > a * a


@pytest.mark.parametrize("centre,scales", [
    (10, (1, 1)),
    # outside the regime d/R > 4 sqrt(2)
    (4, (1, 1)),
    (7, (2, Fraction(1, 2))),
], ids=["unit-10-apart", "unit-4-apart", "radii-2-and-half"])
def test_hs_truncated_two_disc_increments_below_limit_exactly(centre, scales):
    # each level-2n increment of a finite truncation is below its M -> oo
    # limit rho^(2n) / prod_{k<=n} (1 - rho^(2k)), rho = (s - sqrt(D))/2 with
    # D = s^2 - 4.  Floats cannot tell: at unit discs 10 apart and n = 1 the
    # gap is 2.9e-19, far below the float spacing of rows near 1.  Decided as
    # rho^(2n) - increment * prod_{k<=n} (1 - rho^(2k)) > 0 in Q(sqrt(D)).
    r1, r2 = (Fraction(q) for q in scales)
    config = DiscConfiguration((Disc(rational(0), rational(r1)), Disc(rational(centre), rational(r2))))
    rows = hs_truncated(config, 8, 6)
    sums = [row.partial_sum.rational() for row in rows]
    s = (centre ** 2 - r1 ** 2 - r2 ** 2) / (r1 * r2)
    D = s * s - 4
    rho = (s / 2, Fraction(-1, 2))
    q = _quadratic_mul(rho, rho, D)
    q_power, product = (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))
    for n in (1, 2, 3):
        q_power = _quadratic_mul(q_power, q, D)
        product = _quadratic_mul(product, (1 - q_power[0], -q_power[1]), D)
        assert _quadratic_positive(product, D)
        increment = sums[2 * n] - sums[2 * n - 2]
        gap = (q_power[0] - increment * product[0], q_power[1] - increment * product[1])
        assert _quadratic_positive(gap, D), n


def _truncated_det(config: DiscConfiguration, M: int) -> complex:
    """det(I - A') at mode cutoff M in floats, A' = D^2 conj(K') D^2 K' with
    D^2 = diag(m) and K' from ``_PairMatrix``, as ``_hs_traces`` builds it."""
    pair_matrix = _PairMatrix(config)
    slots = [(j, m) for j in range(config.r) for m in range(1, M + 1)]
    kp = np.array(
        [[pair_matrix(ja, ma, jb, mb) if ja != jb else 0 for jb, mb in slots] for ja, ma in slots],
        dtype=complex,
    )
    d2 = np.diag([float(m) for _, m in slots])
    return complex(np.linalg.det(np.eye(len(slots)) - d2 @ kp.conj() @ d2 @ kp))


def _schottky_classes(r: int, max_len: int):
    """The primitive conjugacy classes of the Schottky group of even words in
    r reflections, up to word length max_len: cyclically reduced words of
    even length, one per rotation by an even number of letters, leaving out
    powers of a shorter even word (a square of an odd word counts)."""
    for length in range(2, max_len + 1, 2):
        for word in product(range(r), repeat=length):
            if any(word[i] == word[(i + 1) % length] for i in range(length)):
                continue
            if word != min(word[s:] + word[:s] for s in range(0, length, 2)):
                continue
            if any(length % p == 0 and word == word[:p] * (length // p) for p in range(2, length, 2)):
                continue
            yield word


def _schottky_product(config: DiscConfiguration, max_len: int) -> complex:
    """prod over classes [gamma] of prod_{m >= 1} (1 - q_gamma^m), classes up
    to word length max_len (McIntyre & Takhtajan, GAFA 16, 2006).  The
    reflection in circle j, z -> c_j + R_j^2 / conj(z - c_j), acts on conj(z)
    by S_j = [[c_j, R_j^2 - |c_j|^2], [1, -conj(c_j)]] / sqrt(-R_j^2), of
    determinant 1, and the word j1 j2 ... by S_j1 conj(S_j2) S_j3 ...; q_gamma
    is 1/lambda^2 for its eigenvalue lambda of larger modulus."""
    generators = []
    for disc in config.discs:
        c, r_sq = complex(disc.center), abs(complex(disc.q)) ** 2
        generators.append(np.array([[c, r_sq - abs(c) ** 2], [1, -c.conjugate()]]) / cmath.sqrt(-r_sq))
    total = 1 + 0j
    for word in _schottky_classes(config.r, max_len):
        matrix = np.eye(2, dtype=complex)
        for i, j in enumerate(word):
            matrix = matrix @ (generators[j] if i % 2 == 0 else generators[j].conj())
        t = complex(np.trace(matrix))
        # the sign of the root that avoids cancellation in t +- root
        root_ = cmath.sqrt(t * t - 4)
        lam = (t + root_) / 2 if abs(t + root_) >= abs(t - root_) else (t - root_) / 2
        q = 1 / lam ** 2
        power = q
        while abs(power) > 1e-20:
            total *= 1 - power
            power *= q
    return total


@pytest.mark.parametrize("discs,tol", [
    (((0, 1), (7 + 3j, (1 + 1j) / 2), (-4 + 6j, 0.75 - 0.5j)), 1e-13),
    # outside the regime d/R > 4 sqrt(3): d/R = 5
    (((0, 1), (5, 0.5), (2 + 5j, 0.8j)), 1e-13),
    # unit discs 3.2 apart: the gap shrinks geometrically with word length
    (((0, 1), (3.2, 1), (1.6 + 2.9j, 1)), 1e-8),
    # r = 2: the two classes 01 and 10 give the annulus product, squared
    (((0, 1), (10, 1)), 1e-13),
], ids=["in-regime", "d-over-R-5", "unit-discs-close", "two-discs"])
def test_truncated_det_matches_schottky_product(discs, tol):
    # det(I - conj(K) K) = prod_[gamma] prod_m (1 - q_gamma^m): the HS norm
    # of the amplitude in closed form, for any number of disjoint discs
    config = DiscConfiguration(tuple(Disc(complex(a), complex(q)) for a, q in discs))
    det = _truncated_det(config, 20)
    assert abs(_schottky_product(config, 10) - det) <= tol * abs(det)


def test_hs_truncated_resource_guard():
    # comb(44, 4) = 135751 tuples through 4 insertions
    assert math.comb(44, 4) > MAX_TUPLES >= math.comb(44, 3)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="135751 tuples through 4 insertions"):
        hs_truncated(_standard(), 20, 4)
    assert time.perf_counter() - start < 1.0
    # the guard is fixed: no argument lifts it
    with pytest.raises(TypeError):
        hs_truncated(_standard(), 20, 4, max_tuples=10**12)


def test_hs_truncated_out_of_regime_is_silent():
    # the regime is reported by hs_regime() alone: a warning would reach stderr
    cfg = DiscConfiguration((
        Disc(rational(0), ONE),
        Disc(rational(3), ONE),
    ))
    assert not cfg.hs_regime()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = hs_truncated(cfg, 1, 1)
    assert rows[0].partial_sum == ONE


def test_hs_truncated_validation():
    with pytest.raises(ConfigurationError):
        hs_truncated(_standard(), 0, 2)
    with pytest.raises(ConfigurationError):
        hs_truncated(_standard(), 2, -1)


def test_hs_bound_value():
    assert hs_bound(_standard()) == rational(Fraction(23, 22))


def test_hs_bound_float_backend():
    cfg = DiscConfiguration((
        Disc(complex(0), complex(1)),
        Disc(complex(10), complex(1)),
    ))
    assert hs_bound(cfg) == pytest.approx(23 / 22)


def test_hs_bound_regime_error_at_threshold():
    # |a1-a2|^2 = 32 = 16 r R^2 exactly: the strict inequality fails
    cfg = DiscConfiguration((
        Disc(rational(0), ONE),
        Disc(rational(4, 4), ONE),
    ))
    with pytest.raises(RegimeError) as err:
        hs_bound(cfg)
    assert err.value.d_over_r == pytest.approx(err.value.threshold)
