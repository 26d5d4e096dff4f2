"""Contour-integral and series routes to the modes: the references that the
tests check the occupation-basis ladder and the Wick dictionary against.

A trapezoidal contour integral realises the ladder action
alpha_m = sqrt(2) * integral over |z|=r of (dz/2pi) z^m [1,z], and a Wick
group at points in the unit disc expands as a truncated series in the
occupation basis.
"""
import math
from fractions import Fraction
from typing import Optional

from freeboson import scalars
from freeboson.algebra import LinearCombination, WickGroup, WickWord, add_term, check_orders, theta
from freeboson.correlator import KernelTable, expect_combo
from freeboson.errors import DomainError
from freeboson.fock import INV_SQRT2_I, FockIndex, FockVector, fock_inner, ladder
from freeboson.scalars import Scalar

_MODULE = "fock"


def level(idx: FockIndex) -> int:
    """The level sum_m m n_m of an occupation index."""
    return sum(m * n for m, n in idx.occupations)


def basis(occupations, coeff=1) -> FockVector:
    """coeff times the occupation basis state of a {mode: count} map."""
    return FockVector({FockIndex.of(occupations): coeff})


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
            zpow: Scalar = scalars.one_scalar(isinstance(z, scalars.Exact))
            for k in range(m, M - level(idx) + 1):
                c = coeff * Fraction(math.factorial(k - 1), math.factorial(k - m)) * zpow
                add_term(new_states, idx.raised(k), c)
                zpow = zpow * z
        states = new_states
    return FockVector._of_terms(states)


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
    points = [] if G is None else [complex(ins.point) for ins in G.insertions]
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
            return z ** m * complex(value)

        lhs = sqrt2 * circle_quadrature(integrand, radius, nodes, max_nodes=1024)
        rhs = complex(fock_inner(probe_vec, target))
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
                return w ** inner_exp * complex(kernels(1, z, 1, w))

            inner_val = circle_quadrature(inner_f, 0.3, 128)
            return z ** outer_exp * inner_val

        return 2.0 * circle_quadrature(outer_f, 0.6, 128)

    return pair_expectation(m, n) - pair_expectation(n, m)
