"""Occupation-number states, ladder operators, and the Wick dictionary.

Basis states are indexed by finitely supported occupation sequences {n_m};
the state is alpha_{-m1}...alpha_{-mn} applied to the vacuum, with squared
norm prod_m n_m! m^{n_m}; a vector is an algebra.Combination over them.
Two bridges connect this picture to the symbol algebra:

- at the origin, :prod_m [m,0]^{n_m}: corresponds to the basis monomial with
  coefficient prod_m ((m-1)!/(sqrt(2) i))^{n_m};
- at a general point in the unit disc, :[m,z]: expands as the series
  (1/(sqrt(2) i)) sum_{k>=m} ((k-1)!/(k-m)!) z^{k-m} alpha_{-k} applied to
  the vacuum, truncated here at a finite level.

A trapezoidal contour integral cross-checks the ladder action
alpha_m = sqrt(2) * integral over |z|=r of (dz/2pi) z^m [1,z].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from . import scalars
from .algebra import Combination, LinearCombination, WickGroup, WickWord, add_term, theta
from .correlator import KernelTable, check_orders, expect_combo
from .errors import DomainError
from .scalars import I, Scalar, as_scalar, conjugate, is_zero, root

_MODULE = "fock"

# 1/(sqrt(2) i) = -i sqrt(2)/2: the per-field dictionary factor
INV_SQRT2_I = (root(2) * I).inverse()


@dataclass(frozen=True)
class FockIndex:
    """Occupation sequence {n_m}, stored as sorted (mode, count) pairs."""

    occupations: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        cleaned = []
        for m, n in self.occupations:
            if not isinstance(m, int) or m < 1:
                raise DomainError(_MODULE, f"mode must be an integer >= 1, got {m!r}")
            if not isinstance(n, int) or n < 0:
                raise DomainError(_MODULE, f"occupation count must be an integer >= 0, got {n!r}")
            if n:
                cleaned.append((m, n))
        cleaned.sort()
        for i in range(1, len(cleaned)):
            if cleaned[i][0] == cleaned[i - 1][0]:
                raise DomainError(_MODULE, f"repeated mode {cleaned[i][0]} in occupation list")
        object.__setattr__(self, "occupations", tuple(cleaned))

    @classmethod
    def of(cls, occupations: Mapping[int, int]) -> "FockIndex":
        return cls(tuple(occupations.items()))

    def count(self, m: int) -> int:
        for mode, n in self.occupations:
            if mode == m:
                return n
        return 0

    def level(self) -> int:
        return sum(m * n for m, n in self.occupations)

    def particles(self) -> int:
        return sum(n for _, n in self.occupations)

    def norm_sq(self) -> int:
        out = 1
        for m, n in self.occupations:
            out *= math.factorial(n) * m ** n
        return out

    def raised(self, m: int) -> "FockIndex":
        occ = dict(self.occupations)
        occ[m] = occ.get(m, 0) + 1
        return FockIndex.of(occ)

    def lowered(self, m: int) -> Optional["FockIndex"]:
        occ = dict(self.occupations)
        if occ.get(m, 0) < 1:
            return None
        occ[m] -= 1
        return FockIndex.of(occ)


class FockVector(Combination):
    """Finitely supported combination of occupation indices."""

    __slots__ = ()
    key_type = FockIndex

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls({FockIndex(): scalars.ONE})

    @classmethod
    def basis(cls, occupations: Mapping[int, int], coeff=1) -> "FockVector":
        return cls({FockIndex.of(occupations): as_scalar(coeff)})

    def __repr__(self):
        if not self._terms:
            return "FockVector(0)"
        parts = [
            f"{c!r} * {dict(idx.occupations)!r}"
            for idx, c in sorted(self._terms.items(), key=lambda t: t[0].occupations)
        ]
        return "FockVector(" + " + ".join(parts) + ")"


def ladder(v: FockVector, m: int) -> FockVector:
    """alpha_m: creation for m < 0, annihilation with weight m*n_m for m > 0.

    alpha_0 is the zero operator.  Raises ResourceError for |m| above
    MAX_ORDER.
    """
    if not isinstance(v, FockVector):
        raise DomainError(_MODULE, f"ladder expects a FockVector, got {type(v).__name__}")
    if not isinstance(m, int):
        raise DomainError(_MODULE, f"ladder mode must be an integer, got {m!r}")
    check_orders((abs(m),), _MODULE)
    acc: dict[FockIndex, Scalar] = {}
    for idx, coeff in v.items():
        if m < 0:
            add_term(acc, idx.raised(-m), coeff)
        elif m > 0 and (n := idx.count(m)):
            add_term(acc, idx.lowered(m), coeff * (m * n))
    return FockVector._of_terms(acc)


def fock_inner(v: FockVector, w: FockVector) -> Scalar:
    """Sesquilinear inner product, anti-linear in the first argument.

    Basis indices are orthogonal with squared norm prod n_m! m^{n_m}.
    """
    total: Scalar = scalars.ZERO
    started = False
    for idx, cv in v.items():
        cw = w.coeff(idx)
        if is_zero(cw):
            continue
        term = conjugate(cv) * cw * idx.norm_sq()
        total = term if not started else total + term
        started = True
    return total if started else scalars.ZERO


def _order_counts(orders) -> dict[int, int]:
    if isinstance(orders, Mapping):
        counts = {int(m): int(n) for m, n in orders.items() if n}
    else:
        counts = {}
        for m in orders:
            counts[int(m)] = counts.get(int(m), 0) + 1
    for m, n in counts.items():
        if m < 1:
            raise DomainError(_MODULE, f"order must be >= 1, got {m}")
        if n < 0:
            raise DomainError(_MODULE, f"count must be >= 0, got {n}")
    return {m: n for m, n in counts.items() if n}


def wick_origin_to_fock(orders: Union[Iterable[int], Mapping[int, int]]) -> FockVector:
    """The vector of :prod_m [m,0]^{n_m}: in the occupation basis.

    Inverting alpha_{-m}^{n_m} applied to the vacuum =
    (sqrt(2) i/(m-1)!)^{n_m} times the normal-ordered state gives the
    coefficient prod_m ((m-1)!/(sqrt(2) i))^{n_m}; the empty multiset is the
    vacuum.  Raises ResourceError for an order above MAX_ORDER.
    """
    counts = _order_counts(orders)
    check_orders(counts.keys(), _MODULE)
    coeff: Scalar = scalars.ONE
    for m, n in counts.items():
        coeff = coeff * (INV_SQRT2_I * math.factorial(m - 1)) ** n
    return FockVector({FockIndex.of(counts): coeff})


def wick_group_to_fock(G: WickGroup, M: int) -> FockVector:
    """Truncated series expansion of a single Wick group at points in the disc.

    Each insertion (m, z) contributes sum_{k=m}^{M} ((k-1)!/(k-m)!) z^{k-m}
    alpha_{-k}; the product over insertions keeps total level <= M and the
    whole vector carries the prefactor (1/(sqrt(2) i))^n.  Raises
    ResourceError for an order or a level M above MAX_ORDER.
    """
    if not isinstance(G, WickGroup):
        raise DomainError(_MODULE, f"wick_group_to_fock expects a WickGroup, got {type(G).__name__}")
    max_order = max(ins.order for ins in G.insertions)
    if not isinstance(M, int) or M < max_order:
        raise DomainError(_MODULE, f"truncation level M must be >= max order {max_order}, got {M!r}")
    check_orders((M,), _MODULE)  # M bounds every order of G
    for ins in G.insertions:
        if not scalars.in_unit_disc(ins.point):
            raise DomainError(_MODULE, f"point {ins.point!r} is not in the open unit disc")
    n = len(G.insertions)
    prefactor = INV_SQRT2_I ** n
    states: dict[FockIndex, Scalar] = {FockIndex(): prefactor}
    for ins in G.insertions:
        m, z = ins.order, ins.point
        new_states: dict[FockIndex, Scalar] = {}
        for idx, coeff in states.items():
            zpow: Scalar = scalars.one_scalar(scalars.is_exact(z))
            for k in range(m, M - idx.level() + 1):
                c = coeff * Fraction(math.factorial(k - 1), math.factorial(k - m)) * zpow
                add_term(new_states, idx.raised(k), c)
                zpow = zpow * z
        states = new_states
    return FockVector._of_terms(states)


# ---------------------------------------------------------------------------
# Contour-integral cross-checks
# ---------------------------------------------------------------------------

def _require_power_of_two(nodes: int) -> None:
    if not isinstance(nodes, int) or nodes < 4 or nodes & (nodes - 1):
        raise DomainError(_MODULE, f"node count must be a power of two >= 4, got {nodes!r}")


def circle_quadrature(f, radius: float, nodes: int, max_nodes: int = 4096) -> complex:
    """(1/2pi) * integral over |z| = radius of f(z) dz, by the trapezoid rule.

    Spectrally accurate for integrands analytic near the circle; the node
    count doubles until two successive evaluations agree to 1e-10.
    """
    _require_power_of_two(nodes)
    prev: complex | None = None
    n = nodes
    while True:
        total = 0j
        for j in range(n):
            theta_j = 2.0 * math.pi * j / n
            z = radius * complex(math.cos(theta_j), math.sin(theta_j))
            total += f(z) * z
        val = 1j * total / n
        if prev is not None and abs(val - prev) < 1e-10:
            return val
        if 2 * n > max_nodes:
            return val
        prev = val
        n *= 2


_PROBE_POINT = complex(0.35, 0.2)


def contour_alpha_check(m: int, G: Optional[WickGroup], radius: float, nodes: int) -> float:
    """Max discrepancy between the contour definition of alpha_m and ladder.

    For a set of probe states P (the vacuum and single creation groups
    :[k, p]:), compares

        sqrt(2) * (1/2pi) * integral z^m <theta(P) :[1,z]: G> dz

    against fock_inner(P, ladder(series expansion of G, m)), the series
    truncated at level 60 and the quadrature at 1024 nodes.  G = None means
    the vacuum; the contour must enclose all points of G and stay inside the
    unit disc.
    """
    _require_power_of_two(nodes)
    points = [] if G is None else [scalars.to_complex(ins.point) for ins in G.insertions]
    max_abs = max((abs(p) for p in points), default=0.0)
    if not (max_abs < radius < 1.0):
        raise DomainError(
            _MODULE,
            f"radius must lie strictly between max |z_i| = {max_abs:.6g} and 1, got {radius!r}",
        )
    g_word = WickWord.unit() if G is None else WickWord.single_group(G)
    g_vec = FockVector.vacuum() if G is None else wick_group_to_fock(G, 60)
    target = ladder(g_vec, m)

    probes: list[Optional[WickGroup]] = [None]
    for k in (1, 2, 3):
        probes.append(WickGroup.of((k, _PROBE_POINT)))

    worst = 0.0
    sqrt2 = math.sqrt(2.0)
    for probe in probes:
        if probe is None:
            theta_probe = LinearCombination.of(WickWord.unit())
            probe_vec = FockVector.vacuum()
        else:
            theta_probe = theta(LinearCombination.of(WickWord.single_group(probe)))
            probe_vec = wick_group_to_fock(probe, 60)

        def integrand(z: complex) -> complex:
            word = WickWord.single_group(WickGroup.of((1, z))) * g_word
            value = expect_combo(theta_probe * LinearCombination.of(word))
            return z ** m * scalars.to_complex(value)

        lhs = sqrt2 * circle_quadrature(integrand, radius, nodes, max_nodes=1024)
        rhs = scalars.to_complex(fock_inner(probe_vec, target))
        worst = max(worst, abs(lhs - rhs))
    return worst


def contour_commutator(m: int, n: int) -> complex:
    """<vacuum, [alpha_m, alpha_n] vacuum> by nested contour quadrature.

    Both ladder factors are realized through their contour integrals (the
    later-applied operator on the larger circle, |z| = 0.6 around |w| = 0.3,
    from 128 nodes each), so this checks the commutator value m*delta_{m+n}
    without using the occupation-basis rules; one ``KernelTable`` per integral.
    """

    def pair_expectation(outer_exp: int, inner_exp: int) -> complex:
        kernels = KernelTable()
        def outer_f(z: complex) -> complex:
            def inner_f(w: complex) -> complex:
                return w ** inner_exp * scalars.to_complex(kernels(1, z, 1, w))

            inner_val = circle_quadrature(inner_f, 0.3, 128)
            return z ** outer_exp * inner_val

        return 2.0 * circle_quadrature(outer_f, 0.6, 128)

    return pair_expectation(m, n) - pair_expectation(n, m)
