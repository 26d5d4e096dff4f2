"""Multi-disc transition amplitudes and truncated Hilbert-Schmidt sums.

A configuration is r >= 2 pairwise disjoint discs, each given by an affine
parametrization z -> a_j + q_j z of the unit disc (radius |q_j|).  The
amplitude vector is the Gaussian state exp(1/2 sum K_ab a+_a a+_b)|0> over
the (disc, mode) slots, with K = D K' D, D = diag(sqrt(m)) and

    K'_ab = -2 s_a s_b C(m_a, a_a, m_b, a_b),   s = q^m / m!,

across discs and 0 on one disc; one ``_PairMatrix`` gives K' to the
entries and to the HS sweep.  The entry on occupation indices, n copies of
each slot, is root(prod m^n / n!) times the hafnian of K' with the counts
as multiplicities and the disc as the label (``pairing.hafnian``), rather
than a sum over all (n-1)!! matchings.  An entry with no cross-disc perfect
matching is zero before its root is built.

The sum of squared entries over the tuples of 2n insertions is the x^n
coefficient of det(I - x conj(K) K)^(-1/2) (Berezin, The Method of Second
Quantization, 1966).  ``hs_truncated`` takes its truncated sums from that
series, through the traces of the Gaussian-rational matrix
A' = D^2 conj(K') D^2 K', similar to conj(K) K, without visiting the tuples.
K' is symmetric, so each power of A' is D^2 times a Hermitian matrix: in
exact mode half of each power and of each trace is the mirror of the other
half (``_matmul``, ``_trace_product``).

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
from .errors import ConfigurationError, RegimeError, ResourceError, count_text
from .fock import FockIndex
from .pairing import hafnian
from .scalars import Exact, Scalar, as_scalar, real_value, root

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
    """r >= 2 pairwise disjoint discs with derived separation statistics.

    d^2 = min over pairs of |a_i - a_j|^2 (center separation) and
    R^2 = max radius squared are kept in squared form so the disjointness
    and regime tests are exact on rational data:

        disjoint:   t = |a_i-a_j|^2 - R_i^2 - R_j^2 > 0  and  t^2 > 4 R_i^2 R_j^2
        HS regime:  d^2 > 16 r R^2   (equivalent to d/R > 4 sqrt(r))
    """

    discs: tuple[Disc, ...]
    # d^2, kept from the one walk over the disc pairs that tests disjointness
    _center_gap_sq: Fraction | float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.discs) < 2:
            raise ConfigurationError(_MODULE, "a configuration needs at least two discs")
        if len(self.discs) > MAX_DISCS:
            raise ResourceError(_MODULE, f"{len(self.discs)} discs exceed the guard {MAX_DISCS}")
        gap_sq = None
        for i in range(len(self.discs)):
            for j in range(i + 1, len(self.discs)):
                a = self.discs[i]
                b = self.discs[j]
                gap = real_value(scalars.abs_sq(a.center - b.center))
                ra = real_value(a.radius_sq())
                rb = real_value(b.radius_sq())
                t = gap - ra - rb
                if not (t > 0 and t * t > 4 * ra * rb):
                    raise ConfigurationError(
                        _MODULE, f"discs {i} and {j} are not disjoint"
                    )
                gap_sq = gap if gap_sq is None else min(gap_sq, gap)
        object.__setattr__(self, "_center_gap_sq", gap_sq)

    @property
    def r(self) -> int:
        return len(self.discs)

    def is_exact(self) -> bool:
        return all(isinstance(d.center, Exact) and isinstance(d.q, Exact) for d in self.discs)

    def center_gap_sq(self) -> Fraction | float:
        return self._center_gap_sq

    def max_radius_sq(self) -> Fraction | float:
        return max(real_value(d.radius_sq()) for d in self.discs)

    def hs_regime(self) -> bool:
        return self.center_gap_sq() > 16 * self.r * self.max_radius_sq()


def _as_index(x) -> FockIndex:
    if isinstance(x, FockIndex):
        return x
    return FockIndex.of(x)


class _PairMatrix:
    """K'_ab = -2 s_a s_b C(m_a, a_a, m_b, a_b) for (disc, mode) slots a, b
    on different discs, s = q^m / m!: one kernel table and one running list
    of s per disc, shared by the entries of one call or by one HS sweep."""

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
        exact = self.exact
        pairing = hafnian(
            lambda a, b: self(*slots[a], *slots[b]),
            [j for j, _ in slots],
            counts,
            scalars.one_scalar(exact),
            scalars.zero_scalar(exact),
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
    return _PairMatrix(config).entry([_as_index(x) for x in indices])


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
    the last bits.  Cost: nothing is built for N < 2, else one kernel per
    cross-disc slot pair and, for N >= 4, floor((N + 2)/4) matrix products
    of (r*M)^3, halved in exact mode by the mirror of ``_matmul``.  The
    kernels of each disc pair are one value per order sum, from running
    integer powers of the centre difference (``KernelTable``).
    A truncation whose tuples number more than ``MAX_TUPLES`` raises
    ResourceError before anything is built; the slowest shape it admits,
    N = 2 at 2 discs and M = 220, takes about 11 s for discs (centre 0,
    q = 1/2) and (centre 5, q = 1/3 + i/4) (a 2 vCPU Xeon, Python 3.11) of
    exact arithmetic on rationals of hundreds of digits.  Outside the
    summability regime the sums are computed all the same (the amplitude is
    still defined; only the bound is unavailable): ``config.hs_regime()``
    tells the caller which case holds.
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
                f"the truncation holds {count_text(tuples)} tuples through {t} insertions, "
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
    conj(K) K and Gaussian-rational entries: no ``root``.  K' is symmetric,
    so with left = diag(m) conj(K') and right = diag(m) K' every power is
    A'^p = diag(m) H_p with H_p Hermitian: ``_matmul`` mirrors the exact
    entries below the diagonal, and ``_trace_product`` sums each exact
    trace over the pairs i <= j.
    """
    exact = config.is_exact()
    zero = scalars.zero_scalar(exact)
    slots = [(j, m) for j in range(config.r) for m in range(1, M + 1)]
    n = len(slots)
    pair_matrix = _PairMatrix(config)
    kp = [[zero] * n for _ in range(n)]
    # tr(A') = sum_ab m_a m_b |K'_ab|^2 needs no product: twice the sum over
    # the cross-disc pairs a < b
    half_trace = zero
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
    # powers[p] = A'^p up to ceil(kmax/2), and tr(A'^k) = sum_ij (A'^ceil)_ij (A'^floor)_ji
    powers = [None, _matmul(left, right, modes, zero)]
    while 2 * (len(powers) - 1) < kmax:
        powers.append(_matmul(powers[-1], powers[1], modes, zero))
    for k in range(2, kmax + 1):
        traces.append(_trace_product(powers[(k + 1) // 2], powers[k // 2], zero))
    return traces


def _matmul(
    x: list[list[Scalar]], y: list[list[Scalar]], modes: list[int], zero: Scalar
) -> list[list[Scalar]]:
    """The power x y of A', for x = left or a power of A' and y = A' (see
    ``_hs_traces``), skipping the zero entries of x (the same-disc blocks).

    The entries on and above the diagonal are summed.  Below it,
    A'^p[i][j] = (m_i/m_j) conj(A'^p[j][i]), because A'^p = diag(m) H_p with
    H_p Hermitian; that holds only for K' symmetric, left = diag(m) conj(K')
    and right = diag(m) K'.  The mirror is taken when A'^p[j][i] is an
    ``Exact``; a float entry is summed, so float powers keep all n^2 sums.
    """
    out: list[list[Scalar]] = []
    for i, row in enumerate(x):
        terms = [(v, y[l]) for l, v in enumerate(row) if v]
        m_i = modes[i]
        out_row = []
        for j in range(len(y[0])):
            mirror = out[j][i] if j < i else None
            if isinstance(mirror, Exact):
                m_j = modes[j]
                conj = mirror.conjugate()
                out_row.append(conj if m_i == m_j else conj * Fraction(m_i, m_j))
            else:
                out_row.append(sum((v * yl[j] for v, yl in terms), zero))
        out.append(out_row)
    return out


def _trace_product(hi: list[list[Scalar]], lo: list[list[Scalar]], zero: Scalar) -> Scalar:
    """tr(hi lo) for two powers of A' from ``_matmul``.

    Exact: tr(hi lo) is real and hi_ji lo_ij = conj(hi_ij lo_ji) (the mirror
    rule of ``_matmul``), so the trace is sum_i Re(hi_ii lo_ii) plus twice
    sum_{i<j} Re(hi_ij lo_ji).  Both factors of a pair carry one radicand s,
    so each real part is the rational s (a.re b.re - a.im b.im).  Float: the
    sum over all n^2 pairs.
    """
    n = len(hi)
    if not isinstance(zero, Exact):
        return sum((hi[i][j] * lo[j][i] for i in range(n) for j in range(n)), zero)
    diagonal = off_diagonal = Fraction(0)
    for i in range(n):
        hi_row = hi[i]
        for j in range(i, n):
            a, b = hi_row[j], lo[j][i]
            if a and b:
                part = a.s * (a.re * b.re - a.im * b.im)
                if i == j:
                    diagonal += part
                else:
                    off_diagonal += part
    return scalars.rational(diagonal + 2 * off_diagonal)


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
    x = Fraction(r, 4) * s if isinstance(s, Fraction) else r * s / 4
    bound = 1 / (1 - x)
    if isinstance(bound, Fraction):
        return scalars.rational(bound)
    return complex(bound, 0.0)
