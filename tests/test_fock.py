"""Occupation states, ladder algebra, the Wick dictionary, contour checks."""
import random
import time
from fractions import Fraction

import pytest

from freeboson import scalars
from freeboson.algebra import WickGroup, WickWord
from freeboson.errors import DomainError, ResourceError
from freeboson.fock import (
    INV_SQRT2_I,
    FockIndex,
    FockVector,
    fock_inner,
    ladder,
    wick_origin_to_fock,
)
from freeboson.hilbert import inner
from freeboson.sampling import partition_multisets, random_fock_vector
from freeboson.scalars import I, rational, root
from fock_reference import (
    basis,
    circle_quadrature,
    contour_alpha_check,
    contour_commutator,
    level,
    wick_group_to_fock,
)


def test_dictionary_constant():
    assert INV_SQRT2_I == (root(2) * I).inverse()
    assert INV_SQRT2_I * root(2) * I == rational(1)


def test_index_validation():
    with pytest.raises(DomainError):
        FockIndex(((0, 1),))
    with pytest.raises(DomainError):
        FockIndex(((1, -1),))
    with pytest.raises(DomainError):
        FockIndex(((2, 1), (2, 1)))
    assert FockIndex(((3, 0),)) == FockIndex()


def test_index_statistics():
    idx = FockIndex.of({1: 2, 3: 1})
    assert level(idx) == 5
    assert idx.norm_sq() == 2 * 3  # 2! * 1^2 * 1! * 3^1


def test_lowering_an_absent_mode_gives_none():
    idx = FockIndex.of({2: 1})
    assert idx.lowered(1) is None
    assert FockIndex().lowered(3) is None
    assert idx.lowered(2) == FockIndex()


def test_vector_repr():
    v = FockVector({FockIndex.of({2: 1}): rational(1, 1), FockIndex.of({1: 2}): rational(Fraction(1, 2))})
    # terms sorted by their occupations
    assert repr(v) == "FockVector(Exact((1/2)) * {1: 2} + Exact((1+1j)) * {2: 1})"
    assert repr(v - v) == repr(FockVector()) == "FockVector(0)"


@pytest.mark.parametrize("occ,expected", [
    ({1: 1}, 1),
    ({2: 2}, 8),
    ({2: 1}, 2),
])
def test_norm_sq_values(occ, expected):
    assert FockIndex.of(occ).norm_sq() == expected


def test_ladder_commutation_on_vacuum():
    vac = FockVector.vacuum()
    assert ladder(ladder(vac, -1), 1) == vac
    assert ladder(vac, 1) == FockVector.zero()
    assert ladder(vac, 0) == FockVector.zero()


def test_alpha_minus_two_squared_norm():
    v = ladder(ladder(FockVector.vacuum(), -2), -2)
    assert fock_inner(v, v) == rational(8)


def test_commutator_on_random_vectors():
    rng = random.Random(61)
    v = random_fock_vector(rng, max_level=8)
    for m in range(-4, 5):
        for n in range(-4, 5):
            lhs = ladder(ladder(v, n), m) - ladder(ladder(v, m), n)
            rhs = v.scaled(m) if m + n == 0 else FockVector.zero()
            assert lhs == rhs


def test_adjointness():
    rng = random.Random(67)
    v = random_fock_vector(rng)
    w = random_fock_vector(rng)
    for m in range(-5, 6):
        assert fock_inner(ladder(v, -m), w) == fock_inner(v, ladder(w, m))


def test_fock_inner_orthogonality():
    a = basis({1: 1})
    b = basis({2: 1})
    assert fock_inner(a, b) == scalars.ZERO
    assert fock_inner(a, a) == rational(1)
    assert fock_inner(b, b) == rational(2)


def test_fock_inner_antilinear():
    c = rational(Fraction(1, 3), Fraction(2, 5))
    a = basis({1: 1}, c)
    b = basis({1: 1})
    assert fock_inner(a, b) == c.conjugate()
    assert fock_inner(b, a) == c


def test_wick_origin_to_fock_single_mode():
    # :[2,0]: carries coefficient 1!/(sqrt(2) i) on the {n_2=1} basis state
    v = wick_origin_to_fock([2])
    assert v.coeff(FockIndex.of({2: 1})) == INV_SQRT2_I
    assert len(v) == 1


def test_wick_origin_to_fock_vacuum():
    assert wick_origin_to_fock([]) == FockVector.vacuum()


def test_wick_origin_norm_matches_hilbert():
    v = wick_origin_to_fock([1])
    assert fock_inner(v, v) == rational(Fraction(1, 2))
    assert fock_inner(v, v) == inner(WickGroup.of((1, 0)), WickGroup.of((1, 0)))


def test_dictionary_inner_products_match():
    multisets = partition_multisets(6)
    for A in multisets:
        for B in multisets:
            lhs = fock_inner(wick_origin_to_fock(A), wick_origin_to_fock(B))
            wA = WickWord.unit() if not A else WickWord.single_group(
                WickGroup.of(*((m, 0) for m in A)))
            wB = WickWord.unit() if not B else WickWord.single_group(
                WickGroup.of(*((m, 0) for m in B)))
            assert lhs == inner(wA, wB)


def test_wick_group_to_fock_origin_reduces_to_dictionary():
    g = WickGroup.of((2, 0))
    assert wick_group_to_fock(g, 6) == wick_origin_to_fock([2])


def test_wick_group_to_fock_series_coefficients():
    # :[1,z]: expands with coefficient z^{k-1}/(sqrt(2) i) on alpha_{-k}
    z = Fraction(1, 4)
    v = wick_group_to_fock(WickGroup.of((1, z)), 5)
    for k in range(1, 6):
        expected = INV_SQRT2_I * rational(z ** (k - 1))
        assert v.coeff(FockIndex.of({k: 1})) == expected


def test_wick_group_to_fock_truncated_inner():
    g = WickGroup.of((1, Fraction(1, 4)))
    v = wick_group_to_fock(g, 40)
    truncated = complex(fock_inner(v, v))
    closed = complex(inner(g, g))
    assert abs(truncated - closed) < 1e-12


def test_wick_group_to_fock_validation():
    with pytest.raises(DomainError):
        wick_group_to_fock(WickGroup.of((3, 0)), 2)  # M below max order
    with pytest.raises(DomainError):
        wick_group_to_fock(WickGroup.of((1, 2)), 5)  # outside the disc


def test_circle_quadrature_residue():
    val = circle_quadrature(lambda z: 1 / z, 0.5, 16)
    assert abs(val - 1j) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 3])
def test_circle_quadrature_analytic_vanishes(k):
    val = circle_quadrature(lambda z: z ** k, 0.7, 16)
    assert abs(val) < 1e-12


def test_circle_quadrature_node_validation():
    with pytest.raises(DomainError):
        circle_quadrature(lambda z: z, 0.5, 12)


def test_contour_alpha_vacuum():
    assert contour_alpha_check(1, None, 0.4, 32) < 1e-10


def test_contour_alpha_annihilation():
    g = WickGroup.of((1, 0.25))
    assert contour_alpha_check(1, g, 0.5, 64) < 1e-10


def test_contour_alpha_creation():
    g = WickGroup.of((1, 0.25))
    assert contour_alpha_check(-2, g, 0.5, 64) < 1e-10


def test_contour_alpha_radius_validation():
    with pytest.raises(DomainError):
        contour_alpha_check(1, WickGroup.of((1, 0.5)), 0.3, 32)


@pytest.mark.parametrize("m,n,expected", [
    (1, -1, 1.0),
    (2, -2, 2.0),
    (1, 2, 0.0),
    (2, -1, 0.0),
])
def test_contour_commutator_values(m, n, expected):
    val = contour_commutator(m, n)
    assert abs(val - expected) < 1e-9


def test_fock_maps_order_guard():
    started = time.perf_counter()
    with pytest.raises(ResourceError):
        ladder(FockVector.vacuum(), -10 ** 5)
    with pytest.raises(ResourceError):
        ladder(FockVector.vacuum(), 10 ** 5)
    with pytest.raises(ResourceError):
        wick_origin_to_fock([10 ** 5])
    with pytest.raises(ResourceError):
        wick_group_to_fock(WickGroup.of((10 ** 5, Fraction(1, 2))), 10 ** 5)
    with pytest.raises(ResourceError):
        wick_group_to_fock(WickGroup.of((1, Fraction(1, 2))), 10 ** 5)
    assert time.perf_counter() - started < 1.0
