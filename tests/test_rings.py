"""Ring presentation validation, constructions, and homomorphisms."""

import pytest

import oracles
from ringsieve.errors import (
    CarrierTooLarge,
    IllFormedConstants,
    NotAssociative,
    NoUnit,
    ValidationError,
    ZeroRingRejected,
)
from ringsieve.ideals import all_ideals, ideal_generated
from ringsieve.localstruct import idempotents
from ringsieve.rings import (
    RingPresentation,
    make_cyclic,
    make_product,
    make_quotient,
    parse_ring_text,
    format_ring_text,
    validate_ring,
)
from ringsieve.catalog import dual_numbers


def test_cyclic_six_is_valid():
    ring = make_cyclic(6)
    assert ring.order == 6
    assert (ring.element((4,)) * ring.element((5,))).coords == (2,)
    assert oracles.ring_axioms_exhaustive(ring)


def test_ill_formed_constants_rejected():
    pres = RingPresentation((2, 4), {(0, 0): (0, 1)}, (1, 0))
    with pytest.raises(IllFormedConstants):
        validate_ring(pres)


def test_f2xy_valid_by_exhaustive_axiom_scan(f2xy):
    # oracle first: every one of the 8^3 triples
    assert f2xy.order == 8
    assert oracles.ring_axioms_exhaustive(f2xy)


def test_non_associative_constants_rejected():
    pres = RingPresentation(
        (2, 2, 2),
        {
            (0, 0): (1, 0, 0),
            (0, 1): (0, 1, 0),
            (0, 2): (0, 0, 1),
            (1, 1): (0, 0, 1),
            (1, 2): (0, 1, 0),
            (2, 2): (0, 0, 0),
        },
        (1, 0, 0),
    )
    with pytest.raises(NotAssociative):
        validate_ring(pres)


def test_wrong_unit_rejected():
    pres = RingPresentation((6,), {(0, 0): (1,)}, (5,))
    with pytest.raises(NoUnit):
        validate_ring(pres)


def test_divisibility_chain_enforced():
    with pytest.raises(IllFormedConstants):
        validate_ring(RingPresentation((4, 6), {}, (1, 1)))


def test_zero_ring_only_from_make_cyclic():
    zero = make_cyclic(1)
    assert zero.is_zero and zero.order == 1
    with pytest.raises(ZeroRingRejected):
        validate_ring(RingPresentation((1,), {(0, 0): (0,)}, (0,)))


def test_carrier_bound():
    with pytest.raises(CarrierTooLarge):
        make_cyclic(5000)
    with pytest.raises(CarrierTooLarge):
        make_cyclic(100, carrier_bound=64)


def test_cyclic_eight_has_four_ideals(z8):
    assert len(all_ideals(z8)) == 4  # divisors 1, 2, 4, 8


def test_product_z4_z3_isomorphic_to_z12():
    ring, projections = make_product([make_cyclic(4), make_cyclic(3)])
    assert ring.order == 12
    # oracle: among the 12 candidate images of the additive generator,
    # exactly the unit gives a unit-preserving ring isomorphism from Z/12
    hits = oracles.cyclic_isomorphism_candidates(ring)
    assert hits == [ring.unit.index]
    for proj in projections:
        assert oracles.hom_preserves_operations(proj)


def test_single_factor_product_is_identity_projection():
    base = make_cyclic(6)
    ring, (proj,) = make_product([base])
    assert ring.order == 6
    assert oracles.hom_is_bijective(proj)
    assert all(proj(ring.element_at(i)) == base.element_at(i) for i in range(ring.order))


def test_product_of_two_fields_has_four_ideals():
    ring, _ = make_product([make_cyclic(2), make_cyclic(2)])
    assert len(all_ideals(ring)) == 4


def test_quotient_z12_by_order3_ideal(z12):
    ideal = ideal_generated(z12, [z12.element((4,))])
    quotient, proj = make_quotient(z12, ideal)
    assert quotient.order == 4
    assert quotient.order * ideal.size == z12.order
    assert sorted(int(i) for i in proj.kernel_indices()) == [0, 4, 8]


def test_quotient_by_zero_ideal_is_isomorphism(z12):
    zero = ideal_generated(z12, [])
    quotient, proj = make_quotient(z12, zero)
    assert quotient.order == 12
    assert oracles.hom_is_bijective(proj)
    # round trip through the section is the identity on carriers
    for x in map(z12.element_at, range(z12.order)):
        assert proj.section(proj(x)) == x


def test_quotient_f2xy_by_diagonal_line(f2xy):
    line = ideal_generated(f2xy, [f2xy.element((0, 1, 1))])
    quotient, _ = make_quotient(f2xy, line)
    assert quotient.order == 4
    # oracle: exhaustive isomorphism search against F_2[t]/(t^2)
    assert oracles.unit_preserving_isomorphism_exists(quotient, dual_numbers(2))
    # and against the other order-4 candidates it must fail
    assert not oracles.unit_preserving_isomorphism_exists(quotient, make_cyclic(4))
    assert not oracles.unit_preserving_isomorphism_exists(
        quotient, make_product([make_cyclic(2), make_cyclic(2)])[0]
    )


def test_quotient_by_unit_ideal_rejected(z12):
    with pytest.raises(ZeroRingRejected):
        make_quotient(z12, ideal_generated(z12, [z12.unit]))


def test_large_modulus_does_not_overflow_int64():
    # Z/d presented with b*b = -b and unit -1: products of three coordinates
    # reach d^3 > 2^63 unless every product is reduced
    d = 3_000_017
    pres = RingPresentation(invariant_factors=(d,), structure_constants={(0, 0): (-1,)},
                            unit=(-1,))
    ring = validate_ring(pres, carrier_bound=d)
    for i, j in [(d - 1, d - 1), (d - 2, d - 5), (1_024_809, d - 1), (d - 1, 2)]:
        assert ring.mul_idx(i, j) == (-i * j) % d
    assert [e.coords for e in idempotents(ring)] == [(0,), (d - 1,)]


def test_moduli_past_the_int64_bound_are_rejected():
    # the modular HNF needs 2 * d_k^2 < 2^63; the check runs before any
    # carrier array exists, so a carrier bound that admits d costs nothing
    def cyclic(d):
        return RingPresentation(invariant_factors=(d,), structure_constants={(0, 0): (1,)},
                                unit=(1,))

    with pytest.raises(ValidationError, match="int64"):
        validate_ring(cyclic(3_100_000_000), carrier_bound=10**10)
    with pytest.raises(ValidationError, match="int64"):
        validate_ring(cyclic(2**31))
    with pytest.raises(CarrierTooLarge):  # 2^31 - 1 passes the int64 rule
        validate_ring(cyclic(2**31 - 1))


def test_axioms_exhaustive_on_assorted_small_rings(small_rings):
    for ring in small_rings:
        if ring.order <= 32:
            assert oracles.ring_axioms_exhaustive(ring), ring


def test_ring_file_round_trip(f2xy):
    text = format_ring_text(f2xy)
    back = parse_ring_text(text)
    assert back.invariant_factors == f2xy.invariant_factors
    assert back.unit.coords == f2xy.unit.coords
    assert all(
        back.element_at(back.mul_idx(i, j)).coords == f2xy.element_at(f2xy.mul_idx(i, j)).coords
        for i in range(8)
        for j in range(8)
    )


def test_ring_file_missing_mul_defaults_to_zero():
    text = "# comment line\nring 2 2 2\nmul 1 1 1 0\nmul 1 2 0 1\none 1 0\n"
    ring = parse_ring_text(text)
    x = ring.element((0, 1))
    assert (x * x).coords == (0, 0)


def test_mixed_radix_carrier_order(f2xy):
    # coordinate 1 varies fastest
    assert f2xy.coords_of(1) == (1, 0, 0)
    assert f2xy.coords_of(2) == (0, 1, 0)
    assert f2xy.coords_of(4) == (0, 0, 1)
    assert f2xy.index_of((1, 1, 1)) == 7
