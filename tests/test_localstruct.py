"""Idempotents, local decomposition, and the chain-local classification."""

import numpy as np
import pytest

import oracles
from ringsieve.bitset import is_subset
from ringsieve import localstruct
from ringsieve.catalog import dual_numbers, finite_field, ring_c1, socle_plane_ring
from ringsieve.errors import ZeroRingRejected
from ringsieve.ideals import (
    all_ideals,
    annihilator,
    ideal_generated,
    ideal_product,
)
from ringsieve.localstruct import (
    classify,
    idempotents,
    is_local,
    local_decomposition,
    primitive_idempotents,
    units_mask,
)
from ringsieve.rings import (
    RingPresentation,
    make_cyclic,
    make_product,
    make_quotient,
    validate_ring,
)


def test_idempotents_z12(z12):
    assert [e.coords[0] for e in idempotents(z12)] == [0, 1, 4, 9]


def test_idempotents_of_fields():
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = finite_field(q)
        assert sorted(e.index for e in idempotents(field)) == sorted(
            [0, field.unit.index]
        )


def test_idempotents_of_f2_squared():
    ring, _ = make_product([make_cyclic(2), make_cyclic(2)])
    assert len(idempotents(ring)) == 4


def test_decomposition_z12(z12):
    decomp = local_decomposition(z12)
    by_idem = {
        e.coords[0]: f.size for e, f in zip(decomp.idempotents, decomp.factor_ideals)
    }
    assert by_idem == {4: 3, 9: 4}
    assert [sorted(map(int, f.members)) for f in decomp.factor_ideals] == [
        [0, 4, 8], [0, 3, 6, 9]]
    assert [sorted(map(int, m.members)) for m in decomp.maximal_ideals] == [[0], [0, 6]]


def test_decomposition_of_local_ring_is_trivial(z8):
    decomp = local_decomposition(z8)
    assert len(decomp.factor_ideals) == 1
    assert decomp.factor_ideals[0].size == 8
    assert decomp.idempotents == (z8.unit,)


def test_decomposition_z30_crt():
    decomp = local_decomposition(make_cyclic(30))
    assert sorted(f.size for f in decomp.factor_ideals) == [2, 3, 5]


def test_is_local_examples(f2xy):
    ok, m = is_local(make_cyclic(9))
    assert ok and [int(x) for x in m.members] == [0, 3, 6]
    ok6, m6 = is_local(make_cyclic(6))
    assert not ok6 and m6 is None
    okf, mf = is_local(f2xy)
    assert okf and mf.size == 4


def test_units_mask_matches_product_scan(small_rings):
    for ring in small_rings:
        assert np.array_equal(
            units_mask(ring), np.array(oracles.units_by_product_scan(ring))
        )


def test_classify_examples(z12, f2xy):
    assert classify(z12).is_chain_local_product is True
    verdict = classify(f2xy)
    assert verdict.is_chain_local_product is False
    assert verdict.offending_factor == 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert classify(finite_field(q)).is_chain_local_product is True


def test_zero_ring_rejected_everywhere():
    zero = make_cyclic(1)
    with pytest.raises(ZeroRingRejected):
        classify(zero)
    with pytest.raises(ZeroRingRejected):
        local_decomposition(zero)
    with pytest.raises(ZeroRingRejected):
        is_local(zero)


def test_primitive_idempotent_properties(small_rings):
    for ring in small_rings:
        prim = primitive_idempotents(ring)
        total = ring.zero
        for e in prim:
            assert ring.mul(e, e) == e
            total = total + e
            # no nonzero idempotent strictly below e
            for f in idempotents(ring):
                if f.index in (0, e.index):
                    continue
                below = ring.mul(e, f) == f
                assert not below or f == e
        assert total == ring.unit
        for i, e in enumerate(prim):
            for f in prim[i + 1:]:
                assert ring.mul(e, f) == ring.zero


@pytest.mark.parametrize("chunk", [None, 1, 5])
def test_primitive_idempotents_match_pairwise_oracle(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(localstruct, "IDEMPOTENT_CHUNK", chunk)
    rings = [
        ring_c1(),  # one local factor
        make_cyclic(12),  # two
        make_product([make_cyclic(6), dual_numbers(2)])[0],  # three
        make_cyclic(210),  # four
        make_product([make_cyclic(2), make_cyclic(3), finite_field(4), socle_plane_ring(2)])[0],
    ]
    for ring in rings:
        got = [e.index for e in primitive_idempotents(ring)]
        assert got == oracles.primitive_idempotents_pairwise(ring)


@pytest.mark.parametrize("d", [3_000_017, 3_000_014])
def test_primitive_idempotents_of_large_moduli(d):
    # Z/d with b*b = -b: e*f*c reaches d^3 > 2^63 unless the batched product
    # is reduced between its two factors; Z/(2 * 1,500,007) has four idempotents
    pres = RingPresentation(invariant_factors=(d,), structure_constants={(0, 0): (-1,)},
                            unit=(-1,))
    ring = validate_ring(pres, carrier_bound=d)
    candidates = [e.index for e in idempotents(ring)]
    got = [e.index for e in primitive_idempotents(ring)]
    assert got == oracles.primitive_idempotents_pairwise(ring, candidates)
    assert len(got) == (1 if d == 3_000_017 else 2)


def test_factors_are_local_and_orders_multiply(small_rings):
    # each factor eR is checked as the standalone ring R/(1 - e)R
    for ring in small_rings:
        decomp = local_decomposition(ring)
        total = 1
        for e, ideal, maximal in zip(
            decomp.idempotents, decomp.factor_ideals, decomp.maximal_ideals
        ):
            factor, _ = make_quotient(ring, ideal_generated(ring, [ring.unit - e]))
            ok, factor_maximal = is_local(factor)
            assert ok
            assert factor.order == ideal.size
            assert factor_maximal.size == maximal.size
            total *= factor.order
        assert total == ring.order


def test_classify_respects_products(small_rings):
    for a in small_rings[:6]:
        for b in small_rings[:6]:
            if a.order * b.order > 512:
                continue
            product, _ = make_product([a, b])
            expected = (
                classify(a).is_chain_local_product
                and classify(b).is_chain_local_product
            )
            assert classify(product).is_chain_local_product == expected


def test_minimal_ideals_live_in_the_socle():
    # in a local factor every minimal ideal sits inside Ann(m) and is
    # killed by the maximal ideal
    for ring in [
        make_cyclic(8),
        make_cyclic(9),
        socle_plane_ring(2),
        socle_plane_ring(3),
    ]:
        ok, maximal = is_local(ring)
        assert ok
        socle = annihilator(maximal)
        for minimal in oracles.minimal_ideals(all_ideals(ring)):
            assert is_subset(minimal.mask, socle.mask)
            assert ideal_product(maximal, minimal).size == 1


def test_embeddings_preserve_structure(z12):
    # the projection R -> R/(1 - e)R that counterexample builds for a factor
    # is a ring map, and bijective on the factor eR
    decomp = local_decomposition(z12)
    for e, ideal in zip(decomp.idempotents, decomp.factor_ideals):
        factor, proj = make_quotient(z12, ideal_generated(z12, [z12.unit - e]))
        assert oracles.hom_preserves_operations(proj)
        carrier_map = oracles.hom_carrier_map(proj)
        assert sorted(carrier_map[int(x)] for x in ideal.members) == list(range(factor.order))


def test_classify_builds_no_ring(monkeypatch):
    # every factor is decided as an ideal of the ring itself
    from ringsieve import rings

    fresh = [
        ring_c1(),
        make_cyclic(60),
        make_product([make_cyclic(3), socle_plane_ring(2), make_cyclic(4)])[0],
        make_product([make_cyclic(2), make_cyclic(3), finite_field(4), dual_numbers(2)])[0],
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a ring was built")

    for name in ("make_quotient", "make_product", "validate_ring"):
        monkeypatch.setattr(rings, name, refuse)
    assert [classify(ring).per_factor for ring in fresh] == [
        ((0, True, False),),
        ((0, True, True), (1, True, True), (2, True, True)),
        ((0, True, True), (1, True, False), (2, True, True)),
        ((0, True, True), (1, True, True), (2, True, True), (3, True, True)),
    ]
