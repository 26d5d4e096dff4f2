"""Multi-disc transition amplitudes and truncated Hilbert-Schmidt sums.

A configuration is r >= 2 pairwise disjoint discs, each given by an affine
parametrization z -> a_j + q_j z of the unit disc (radius |q_j|).  The
amplitude vector is the Gaussian state exp(1/2 sum K_ab a+_a a+_b)|0> over
the (disc, mode) slots, with K = D K' D, D = diag(sqrt(m)) and

    K'_ab = -2 s_a s_b C(m_a, a_a, m_b, a_b),   s = q^m / m!,

across discs and 0 on one disc; one ``_PairMatrix`` gives K' to the
entries and to the float HS sweep.  The entry on occupation indices, n
copies of each slot, is root(prod m^n / n!) times the hafnian of K' with
the counts as multiplicities and the disc as the label
(``pairing.hafnian``), rather than a sum over all (n-1)!! matchings.  An
entry with no cross-disc perfect matching is zero before its root is built.

The sum of squared entries over the tuples of 2n insertions is the x^n
coefficient of det(I - x conj(K) K)^(-1/2) (Berezin, The Method of Second
Quantization, 1966).  ``hs_truncated`` takes its truncated sums from that
series, through the traces of A' = D^2 conj(K') D^2 K', similar to
conj(K) K, without visiting the tuples.  The exact sweep reads them off the
bare kernels H_ab = K'_ab / (s_a s_b), with no scale in a product: tr(A')
is a convolution of rationals over the order sums, and A' is similar to
Y = P conj(H) P H with P = diag(m |s|^2) rational.  Y^p = diag(2P) Z_p
with Z_p Hermitian, and one product, ``_matmul``, makes every Z_p: half of
it, through ``scalars.hermitian``, skipping the zeros of both factors.
``_trace_product`` sums half of each trace.  At two discs Y is
block-diagonal with blocks of equal traces; one M x M block is built.

When the separation satisfies d/R > 4 sqrt(r), the squared entries are
summable and bounded by the closed form 1/(1 - x) with
x = (r/4) * (8R^2/d^2)/(1 - 8R^2/d^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import scalars
from .algebra import check_point
from .correlator import KernelTable
from .errors import ConfigurationError, RegimeError, ResourceError, integer_text
from .fock import FockIndex
from .pairing import hafnian
from .scalars import ZERO, Exact, Scalar, as_scalar, hermitian, real_value, root

_MODULE = "amplitude"

# the HS sweep refuses a truncation with more index tuples than this; a fixed
# guard like MAX_ORDER, pairing.MAX_STATES and scalars.TRIAL_BOUND
MAX_TUPLES = 100_000
# a configuration refuses more discs than this before its exact walk over
# the r(r - 1)/2 disc pairs (2016 at 64 discs)
MAX_DISCS = 64


@dataclass(frozen=True)
class Disc:
    """A parametrized disc: center a, scale q != 0, radius |q|.  An exact
    center is a Gaussian rational (``algebra.check_point``); q may carry a
    radical, since it enters only products."""

    center: Scalar
    q: Scalar

    def __post_init__(self):
        object.__setattr__(self, "center", as_scalar(self.center))
        object.__setattr__(self, "q", as_scalar(self.q))
        check_point(self.center, _MODULE, ConfigurationError)
        if not self.q:
            raise ConfigurationError(_MODULE, "disc scale q must be nonzero")

    def radius_sq(self) -> Scalar:
        return scalars.abs_sq(self.q)


@dataclass(frozen=True)
class DiscConfiguration:
    """r >= 2 pairwise disjoint discs.  One walk keeps each R_i^2 = |q_i|^2
    and each centre gap |a_i - a_j|^2, i < j, which the statistics and the
    HS sweep read; squared, so the tests below are exact on rational data,
    with d^2 the least gap and R^2 the largest R_i^2:

        disjoint:   t = |a_i-a_j|^2 - R_i^2 - R_j^2 > 0  and  t^2 > 4 R_i^2 R_j^2
        HS regime:  d^2 > 16 r R^2   (equivalent to d/R > 4 sqrt(r))
    """

    discs: tuple[Disc, ...]
    _radii_sq: tuple[Fraction | float, ...] = field(init=False, repr=False, compare=False)
    _gaps_sq: dict[tuple[int, int], Fraction | float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.discs) < 2:
            raise ConfigurationError(_MODULE, "a configuration needs at least two discs")
        if len(self.discs) > MAX_DISCS:
            raise ResourceError(_MODULE, f"{len(self.discs)} discs exceed the guard {MAX_DISCS}")
        radii_sq = tuple(real_value(d.radius_sq()) for d in self.discs)
        gaps_sq = {}
        for i, (a, ra) in enumerate(zip(self.discs, radii_sq)):
            for j in range(i + 1, len(self.discs)):
                gap = gaps_sq[i, j] = real_value(scalars.abs_sq(a.center - self.discs[j].center))
                rb = radii_sq[j]
                t = gap - ra - rb
                if not (t > 0 and t * t > 4 * ra * rb):
                    raise ConfigurationError(_MODULE, f"discs {i} and {j} are not disjoint")
        object.__setattr__(self, "_radii_sq", radii_sq)
        object.__setattr__(self, "_gaps_sq", gaps_sq)

    @property
    def r(self) -> int:
        return len(self.discs)

    def is_exact(self) -> bool:
        return all(isinstance(d.center, Exact) and isinstance(d.q, Exact) for d in self.discs)

    def center_gap_sq(self) -> Fraction | float:
        return min(self._gaps_sq.values())

    def max_radius_sq(self) -> Fraction | float:
        return max(self._radii_sq)

    def hs_regime(self) -> bool:
        return self.center_gap_sq() > 16 * self.r * self.max_radius_sq()


class _PairMatrix:
    """K'_ab = -2 s_a s_b C(m_a, a_a, m_b, a_b) for (disc, mode) slots a, b
    on different discs, s = q^m / m!: one kernel table and one running list
    of s per disc, built for one entry (``amplitude_entry``) or for one float
    HS sweep (the exact sweep reads the kernels without the scales)."""

    def __init__(self, config: DiscConfiguration):
        self.config = config
        self.exact = config.is_exact()
        self._kernels = KernelTable()
        self._scales = [[scalars.one_scalar(self.exact)] for _ in config.discs]

    def _scale(self, j: int, m: int) -> Scalar:
        scales = self._scales[j]
        while len(scales) <= m:
            scales.append(scales[-1] * self.config.discs[j].q / len(scales))
        return scales[m]

    def __call__(self, j_a: int, m_a: int, j_b: int, m_b: int) -> Scalar:
        discs = self.config.discs
        # the kernel first: its order guard refuses a huge mode before q^m/m!
        c = self._kernels(m_a, discs[j_a].center, m_b, discs[j_b].center)
        return -2 * self._scale(j_a, m_a) * self._scale(j_b, m_b) * c

    def entry(self, indices: Sequence[FockIndex]) -> Scalar:
        """root(prod m^n / n!) times the hafnian of K' over the occupied
        slots, labelled by disc."""
        if len(indices) != self.config.r:
            raise ConfigurationError(
                _MODULE,
                f"expected {self.config.r} occupation indices, got {len(indices)}",
            )
        slots = [(j, m) for j, idx in enumerate(indices) for m, _ in idx.occupations]
        counts = [n for idx in indices for _, n in idx.occupations]
        pairing = hafnian(
            lambda a, b: self(*slots[a], *slots[b]),
            [j for j, _ in slots],
            counts,
            scalars.zero_scalar(self.exact),
        )
        # no factorial of a count is built for an entry with no matching
        if not pairing:
            return pairing
        norm = math.prod(Fraction(m ** n, math.factorial(n)) for (_, m), n in zip(slots, counts))
        return root(norm) * pairing


def amplitude_entry(config: DiscConfiguration, indices: Sequence) -> Scalar:
    """One amplitude tensor entry on a tuple of occupation indices.

    Zero whenever no cross-disc perfect matching exists (an odd total, or
    one disc holding more than half of the insertions); exact on exact disc
    data, with each value a Gaussian rational times one square root: the
    entry's normalisation root(prod m^n / n!), times a radical of q when q
    has one.
    """
    indices = [x if isinstance(x, FockIndex) else FockIndex.of(x) for x in indices]
    return _PairMatrix(config).entry(indices)


@dataclass(frozen=True)
class HSPartial:
    """Cumulative squared-entry sum through one total-insertion level."""

    total_insertions: int
    tuple_count: int
    partial_sum: Scalar


def hs_truncated(config: DiscConfiguration, M: int, N: int) -> list[HSPartial]:
    """Cumulative sums of |entry|^2 over all index tuples with modes <= M
    and total particle count <= N, grouped by total insertion count.

    Row t covers the comb(r*M + t, t) tuples of at most t insertions; odd
    levels add nothing.  The tuples are not visited: with g_k = tr(A'^k)/(2k)
    from ``_hs_traces``, the level-2n sum f_n of the Gaussian-state series
    (module docstring) obeys f_0 = 1, n f_n = sum_k k g_k f_{n-k}.  Exact
    rows are rational; float rows may differ from a tuple-by-tuple sum in
    the last bits.  Cost: nothing is built for N < 2.  In exact mode,
    N = 2 or 3 needs only tr(A'): M^2 integer products per disc pair, no
    kernel.  For N >= 4 the kernels of each disc pair are one value per
    order sum (``KernelTable``), and Y's Hermitian core costs M products
    per entry and per third disc, on its upper half; at two discs only its
    M x M block of disc 0 is built.  For N >= 6, Y and floor((N + 2)/4) - 1
    products Z_p Y follow, each halved by ``hermitian``.  Float mode builds
    every K' entry and sums every product of two nonzero entries.
    A truncation whose tuples number more than ``MAX_TUPLES`` raises
    ResourceError before anything is built; the slowest shape it admits,
    N = 2 at 2 discs and M = 220, takes about 0.3 s for discs (centre 0,
    q = 1/2) and (centre 5, q = 1/3 + i/4) (a 2 vCPU Xeon, Python 3.11).
    Outside the summability regime the sums are computed all the same (the
    amplitude is still defined; only the bound is unavailable):
    ``config.hs_regime()`` tells the caller which case holds.
    """
    if not isinstance(M, int) or M < 1:
        raise ConfigurationError(_MODULE, f"max mode M must be an integer >= 1, got {M!r}")
    if not isinstance(N, int) or N < 0:
        raise ConfigurationError(_MODULE, f"particle cap N must be an integer >= 0, got {N!r}")
    r = config.r
    # tuples through level t number comb(r*M + t, t): the count vectors of the
    # r*M (disc, mode) slots with total <= t.  Checked level by level before
    # anything is built, so a huge truncation stops at the first level over.
    for t in range(N + 1):
        tuples = math.comb(r * M + t, t)
        if tuples > MAX_TUPLES:
            raise ResourceError(
                _MODULE,
                f"the truncation holds {integer_text(tuples)} tuples through {t} insertions, "
                f"above the guard {MAX_TUPLES}",
            )

    exact = config.is_exact()
    zero = scalars.zero_scalar(exact)
    half = N // 2
    traces = _hs_traces(config, M, half) if half else []
    if not exact:
        # the traces of A' are real: drop the rounding in their imaginary part
        traces = [complex(t.real, 0.0) for t in traces]
    f = [scalars.one_scalar(exact)]
    for n in range(1, half + 1):
        f.append(sum((traces[k - 1] / 2 * f[n - k] for k in range(1, n + 1)), zero) / n)
    rows: list[HSPartial] = []
    running: Scalar = zero
    for t in range(N + 1):
        if t % 2 == 0:
            running = running + f[t // 2]
        rows.append(HSPartial(t, math.comb(r * M + t, t), running))
    return rows


def _hs_traces(config: DiscConfiguration, M: int, kmax: int) -> list[Scalar]:
    """tr(A'^k) for k = 1..kmax over the r*M (disc, mode) slots.

    With K' from ``_PairMatrix`` and D = diag(sqrt(m)),
    A' = D^2 conj(K') D^2 K' = D (conj(K) K) D^-1 has the traces of
    conj(K) K.  Write K' = S H S with S = diag(s) and the bare kernels
    H_ab = -2 C(m_a, a_I, m_b, a_J) across discs (0 on one disc), and set
    P = diag(m |s|^2), which is rational even when q has a radical.  Then
    A' = S^-1 Y S with Y = P conj(H) P H, so tr(A'^k) = tr(Y^k) and no
    scale s enters a product.  In exact mode tr(A') comes from
    ``_first_trace`` and the higher traces from the powers of Y: H is
    symmetric, so Y^p = diag(W) Z_p with W = 2P and each Z_p Hermitian, Z_1
    from ``_first_power`` and the others from ``_power_traces``.  At two
    discs Y is block-diagonal, and its two blocks give equal traces (with
    G = H^01, the transpose of P^1 G* P^0 G is a cyclic shift of the factors
    of P^0 conj(G) P^1 G^T), so only the block of disc 0 is built and its
    traces are doubled.  Float mode sums K' itself: tr(A') = sum_ab m_a m_b
    |K'_ab|^2, and the powers of A' = (diag(m) conj(K')) (diag(m) K') in full.
    """
    if config.is_exact():
        table = _weight_table(config, M)
        traces = [_first_trace(config, *table)]
        if kmax < 2:
            return traces
        core, weights = _first_power(config, *table)
        copies = 2 if config.r == 2 else 1
        return traces + [copies * t for t in _power_traces(core, weights, kmax)]
    slots = [(j, m) for j in range(config.r) for m in range(1, M + 1)]
    n = len(slots)
    pair_matrix = _PairMatrix(config)
    kp = [[0j] * n for _ in range(n)]
    # tr(A') = sum_ab m_a m_b |K'_ab|^2 needs no product: twice the sum over
    # the cross-disc pairs a < b
    half_trace = 0j
    for a, (disc_a, m_a) in enumerate(slots):
        for b in range(a + 1, n):
            disc_b, m_b = slots[b]
            if disc_a != disc_b:
                x = kp[a][b] = kp[b][a] = pair_matrix(disc_a, m_a, disc_b, m_b)
                half_trace = half_trace + m_a * m_b * scalars.abs_sq(x)
    traces = [2 * half_trace]
    if kmax < 2:
        return traces
    modes = [m for _, m in slots]
    left = [[m * x.conjugate() for x in row] for m, row in zip(modes, kp)]
    right = [[m * x for x in row] for m, row in zip(modes, kp)]
    return traces + _power_traces(_matmul(left, right, 0j), None, kmax)


def _power_traces(core: list[list[Scalar]], weights: list | None, kmax: int) -> list[Scalar]:
    """tr(Y^k) = tr(Y^ceil(k/2) Y^floor(k/2)) for k = 2..kmax.  Exact:
    Y^p = diag(W) Z_p with Z_1 the core, Y = diag(W) Z_1 (formed for
    kmax >= 3) and Z_(p+1) = Z_p Y, Hermitian as Z_1 W Z_1 ... W Z_1.
    Float: weights is None, and the core is A' itself."""
    zero = 0j if weights is None else ZERO
    powers = [None, core]
    if kmax > 2:
        y = core if weights is None else [[w * x for x in row] for w, row in zip(weights, core)]
        while 2 * (len(powers) - 1) < kmax:
            powers.append(_matmul(powers[-1], y, zero))
    pairs = [(powers[(k + 1) // 2], powers[k // 2]) for k in range(2, kmax + 1)]
    return [_trace_product(hi, lo, weights) for hi, lo in pairs]


def _weight_table(config: DiscConfiguration, M: int) -> tuple[list[list[int]], list[int]]:
    """P^I_m = m |q_I|^(2m) / (m!)^2 for m = 1..M, from the configuration's
    |q_I|^2 = u/v: the integers m u^m v^(M - m) (M!/m!)^2 of each disc, and
    its one denominator v^M (M!)^2."""
    top = math.factorial(M)
    squares = [(top // math.factorial(m)) ** 2 for m in range(M + 1)]
    numerators, denominators = [], []
    for radius_sq in config._radii_sq:
        u, v = radius_sq.numerator, radius_sq.denominator
        numerators.append([m * u ** m * v ** (M - m) * squares[m] for m in range(1, M + 1)])
        denominators.append(v ** M * top * top)
    return numerators, denominators


def _first_trace(config: DiscConfiguration, numerators: list, denominators: list) -> Exact:
    """The exact tr(A') = sum_ab P_a P_b |H_ab|^2 (see ``_hs_traces``), with
    |H_ab|^2 = ((n - 1)!)^2 / |a_I - a_J|^(2n) at the order sum n = m_a + m_b:

        2 sum_{I<J} sum_n ((n - 1)!)^2 / |a_I - a_J|^(2n) sum_{a+b=n} P^I_a P^J_b,

    over the configuration's gaps, with P from ``_weight_table``.  Every
    term is rational, so no Gaussian value is built: a disc pair sums its
    integer numerators over one denominator, one Fraction per pair.
    """
    M = len(numerators[0])
    factorials = [math.factorial(k) for k in range(2 * M)]
    total = Fraction(0)
    for (i, j), gap_sq in config._gaps_sq.items():
        g, h = gap_sq.numerator, gap_sq.denominator
        p_i, p_j = numerators[i], numerators[j]
        # sum_n ((n - 1)!)^2 h^n g^(2M - n) c_n by Horner in g, with c_n
        # the convolution of the numerators at order sum n
        pair, h_power = 0, h
        for n in range(2, 2 * M + 1):
            h_power *= h
            c = sum(p_i[a - 1] * p_j[n - a - 1] for a in range(max(1, n - M), min(M, n - 1) + 1))
            pair = pair * g + factorials[n - 1] ** 2 * h_power * c
        total += Fraction(pair, g ** (2 * M) * denominators[i] * denominators[j])
    return scalars.rational(2 * total)


def _first_power(
    config: DiscConfiguration, numerators: list, denominators: list
) -> tuple[list[list[Exact]], list[Fraction]]:
    """The Hermitian core Z_1 of Y = P conj(H) P H = diag(W) Z_1 of
    ``_hs_traces`` and its weights W = 2P, over the slots of every disc, or
    of disc 0 alone at two discs.

    With W from ``_weight_table`` and the kernels C = -H/2,
    Y = W conj(C) W C.  C is symmetric, C(m, a_I, k, a_J) = C(k, a_J, m, a_I),
    read once per cross-disc slot pair from one ``KernelTable``, and 0 on one
    disc.  So the core Z_1 = conj(C) W C is Hermitian; ``_matmul`` sums half
    of it, and no product meets a same-disc zero.
    """
    M = len(numerators[0])
    weights = [Fraction(2 * x, d) for row, d in zip(numerators, denominators) for x in row]
    centres = [disc.center for disc in config.discs]
    table = KernelTable()
    slots = [(i, m) for i in range(config.r) for m in range(1, M + 1)]
    n = len(slots)
    c = [[ZERO] * n for _ in range(n)]
    for a, (i, m) in enumerate(slots):
        for b in range((i + 1) * M, n):
            j, k = slots[b]
            c[a][b] = c[b][a] = table(m, centres[i], k, centres[j])
    # at two discs only the block of disc 0 (see ``_hs_traces``)
    kept = range(M if config.r == 2 else n)
    left = [[x.conjugate() for x in c[a]] for a in kept]
    right = [[w * row[b] if row[b] else ZERO for b in kept] for w, row in zip(weights, c)]
    return _matmul(left, right, ZERO), weights[:len(kept)]


def _matmul(x: list[list[Scalar]], y: list[list[Scalar]], zero: Scalar) -> list[list[Scalar]]:
    """The Hermitian product x y by ``hermitian``: Y's core, Z_p Y (exact) or
    a power of A' (float, every entry summed).  A term is summed only where
    both its factors are nonzero: a float sum starts at +0, so a skipped +-0
    term never changes its bits."""
    terms = [[(v, y[l]) for l, v in enumerate(row) if v] for row in x]
    return hermitian(len(x), lambda i, j: sum((v * yl[j] for v, yl in terms[i] if yl[j]), zero))


def _trace_product(hi: list[list[Scalar]], lo: list[list[Scalar]], weights: list | None) -> Scalar:
    """tr(Y^a Y^b) for the Hermitian hi = Z_a and lo = Z_b of Y^p = diag(W) Z_p
    (exact), or tr(hi lo) for two powers of A' when weights is None (float).

    Exact: hi_ji lo_ij = conj(hi_ij lo_ji), so sum_ij W_i W_j hi_ij lo_ji is
    sum_i W_i^2 Re(hi_ii lo_ii) plus twice sum_{i<j} W_i W_j Re(hi_ij lo_ji).
    The entries are Gaussian rationals, so each real part is the rational
    a.re b.re - a.im b.im.  Float: the sum over all n^2 pairs.
    """
    n = len(hi)
    if weights is None:
        return sum((hi[i][j] * lo[j][i] for i in range(n) for j in range(n)), 0j)
    total = Fraction(0)
    for i, w_i in enumerate(weights):
        hi_row, row = hi[i], Fraction(0)
        # twice W_i (W_i/2 on the diagonal, W_j after it) times each real part
        for j, w_j in enumerate([w_i / 2] + weights[i + 1:], i):
            a, b = hi_row[j], lo[j][i]
            if a and b:
                row += w_j * (a.re * b.re - a.im * b.im)
        total += w_i * row
    return scalars.rational(2 * total)


def hs_bound(config: DiscConfiguration) -> Scalar:
    """The closed-form bound 1/(1-x), x = (r/4) * (8R^2/d^2)/(1 - 8R^2/d^2).

    Requires the strict regime d/R > 4 sqrt(r); otherwise raises RegimeError
    carrying the offending ratio.
    """
    d_sq = config.center_gap_sq()
    r_sq = config.max_radius_sq()
    r = config.r
    if not config.hs_regime():
        ratio = math.sqrt(float(d_sq) / float(r_sq))
        raise RegimeError(_MODULE, ratio, 4.0 * math.sqrt(r))
    y = 8 * r_sq / d_sq
    s = y / (1 - y)
    return as_scalar(1 / (1 - r * s / 4))
