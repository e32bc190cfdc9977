"""Ideal generation, enumeration, and lattice operations."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringsieve import intmat
from ringsieve.bitset import is_subset
from ringsieve.catalog import ring_c1, socle_plane_ring
from ringsieve.errors import ValidationError
from ringsieve.ideals import (
    all_ideals,
    annihilator,
    ideal_from_members,
    ideal_generated,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    join_table,
    lattice_op,
    minimal_ideals,
    zero_ideal,
)
from ringsieve.localstruct import units_mask
from ringsieve.rings import make_cyclic, make_product
from ringsieve.rogers import theorem2_verify


def test_generated_by_four_in_z12(z12):
    ideal = ideal_generated(z12, [z12.element((4,))])
    assert [int(m) for m in ideal.members] == [0, 4, 8]
    # oracle: naive closure fixpoint
    assert oracles.ideal_closure_fixpoint(z12, [4]) == {0, 4, 8}


def test_empty_generators_give_zero_ideal(z12):
    assert [int(m) for m in ideal_generated(z12, []).members] == [0]


def test_line_in_f2xy(f2xy):
    ideal = ideal_generated(f2xy, [f2xy.element((0, 1, 0))])
    assert ideal.size == 2
    assert oracles.ideal_closure_fixpoint(f2xy, [2]) == {0, 2}


def test_all_ideals_z12_divisor_lattice(z12):
    ideals = all_ideals(z12)
    assert sorted(i.size for i in ideals) == [1, 2, 3, 4, 6, 12]
    assert sorted(i.mask for i in ideals) == oracles.ideals_by_subset_scan(z12)


def test_fields_have_two_ideals():
    from ringsieve.catalog import finite_field

    for q in (2, 3, 4, 5, 7, 8, 9):
        assert len(all_ideals(finite_field(q))) == 2


def test_all_ideals_f2xy(f2xy):
    ideals = all_ideals(f2xy)
    assert len(ideals) == 6
    assert sorted(i.size for i in ideals) == [1, 2, 2, 2, 4, 8]
    assert sorted(i.mask for i in ideals) == oracles.ideals_by_subset_scan(f2xy)


def test_ideal_count_equals_divisor_count():
    from math import prod

    for n in (2, 8, 9, 10, 30, 36, 48):
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(all_ideals(make_cyclic(n))) == divisors


def test_intersect_example(z12):
    i4 = ideal_generated(z12, [z12.element((4,))])
    i6 = ideal_generated(z12, [z12.element((6,))])
    assert [int(m) for m in ideal_intersect(i4, i6).members] == [0]


def test_annihilator_of_zero_is_whole_ring(z12):
    assert annihilator(zero_ideal(z12)).size == 12


def test_annihilator_of_maximal_in_f2xy(f2xy):
    m = ideal_generated(f2xy, [f2xy.element((0, 1, 0)), f2xy.element((0, 0, 1))])
    ann = annihilator(m)
    assert ann.mask == m.mask
    # oracle: exhaustive scan over all 8 elements
    members = set(int(x) for x in m.members)
    expected = {
        x
        for x in range(8)
        if all(f2xy.mul_idx(x, a) == 0 for a in members)
    }
    assert set(int(x) for x in ann.members) == expected


def test_chain_examples(z8, z12, f2xy):
    for ring, chain in [(z8, True), (z12, False), (f2xy, False)]:
        assert oracles.is_chain([set(i.members.tolist()) for i in all_ideals(ring)]) is chain


def test_lattice_op_dispatch(z12):
    i4 = ideal_generated(z12, [z12.element((4,))])
    i6 = ideal_generated(z12, [z12.element((6,))])
    assert lattice_op("sum", z12, i4, i6).size == 6  # (2)
    assert lattice_op("intersect", z12, i4, i6).size == 1
    assert lattice_op("product", z12, i4, i6).size == 1  # 24 = 0 mod 12
    assert lattice_op("annihilator", z12, i6).size == 6  # (2) kills (6)
    with pytest.raises(ValueError):
        lattice_op("sum", z12, i4)
    with pytest.raises(ValueError):
        lattice_op("annihilator", z12, i4, i6)


def test_modular_lattice_sanity(small_rings):
    for ring in small_rings:
        ideals = all_ideals(ring)
        for a in ideals:
            for b in ideals:
                s = ideal_sum(a, b)
                i = ideal_intersect(a, b)
                p = ideal_product(a, b)
                assert is_subset(a.mask, s.mask)
                assert is_subset(i.mask, a.mask)
                assert is_subset(p.mask, i.mask)


def test_enumeration_closed_under_ops(small_rings):
    for ring in small_rings:
        ideals = all_ideals(ring)
        masks = {i.mask for i in ideals}
        for a in ideals:
            assert annihilator(a).mask in masks
            for b in ideals:
                assert ideal_sum(a, b).mask in masks
                assert ideal_intersect(a, b).mask in masks
                assert ideal_product(a, b).mask in masks


def test_generated_idempotent(small_rings):
    for ring in small_rings:
        for ideal in all_ideals(ring):
            regen = ideal_generated(
                ring, [ring.element_at(int(m)) for m in ideal.members]
            )
            assert regen.mask == ideal.mask


def test_canonical_generators_regenerate(small_rings):
    for ring in small_rings:
        for ideal in all_ideals(ring):
            regen = ideal_generated(ring, list(ideal.generators))
            assert regen.mask == ideal.mask


def test_sorted_by_cardinality_then_members(small_rings):
    for ring in small_rings:
        ideals = all_ideals(ring)
        keys = [(i.size, tuple(int(m) for m in i.members)) for i in ideals]
        assert keys == sorted(keys)
        assert len(set(i.mask for i in ideals)) == len(ideals)


@given(st.integers(2, 24), st.lists(st.integers(0, 23), max_size=3))
@settings(max_examples=60, deadline=None)
def test_generated_matches_naive_closure_on_cyclic(n, gens):
    ring = make_cyclic(n)
    gen_idx = [g % n for g in gens]
    ideal = ideal_generated(ring, [ring.element_at(g) for g in gen_idx])
    assert set(int(m) for m in ideal.members) == oracles.ideal_closure_fixpoint(
        ring, gen_idx
    )


def test_minimal_ideals_of_f2xy_are_the_three_lines(f2xy):
    mins = minimal_ideals(f2xy)
    assert len(mins) == 3
    assert all(i.size == 2 for i in mins)


# Each builder makes a fresh ring, so no cache filled by an earlier call is read.
ENUMERATION_RINGS = {
    "C1": ring_c1,
    "F3xy": lambda: socle_plane_ring(3),
    "Z4xZ6": lambda: make_product([make_cyclic(4), make_cyclic(6)])[0],
    "Z3xF2xy": lambda: make_product([make_cyclic(3), socle_plane_ring(2)])[0],
}


def _enumeration(ring):
    ideals = all_ideals(ring)
    return ([(i.lattice, i.mask) for i in ideals], units_mask(ring).tolist(),
            theorem2_verify(ring))


@pytest.mark.parametrize("build", ENUMERATION_RINGS.values(), ids=ENUMERATION_RINGS)
def test_enumeration_runs_no_python_hnf(build, monkeypatch):
    expected = _enumeration(build())
    ring = build()

    def refuse(*args, **kwargs):
        raise AssertionError("arbitrary-precision HNF called")

    monkeypatch.setattr(intmat, "hnf", refuse)
    monkeypatch.setattr(intmat, "hnf_full_rank", refuse)
    assert _enumeration(ring) == expected


def _peak_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("second", [lambda: socle_plane_ring(3), lambda: make_cyclic(60)],
                         ids=["Z60xF3xy", "Z60xZ60"])
def test_enumeration_memory_stays_bounded(second):
    # chunked HNF batches peak at 0.4 and 0.7 MB here; one batch over every
    # element or pair at once reached 2.4 and 2.9 MB
    ring = make_product([make_cyclic(60), second()])[0]

    def enumerate_and_verify():
        all_ideals(ring)
        theorem2_verify(ring)

    assert _peak_mb(enumerate_and_verify) < 1.0


def test_join_table_indexes_ideal_sums(small_rings, f3xy):
    for ring in small_rings + [f3xy, make_product([make_cyclic(12), socle_plane_ring(2)])[0]]:
        ideals = all_ideals(ring)
        join = join_table(ring)
        assert join.shape == (len(ideals), len(ideals))
        for a, b in itertools.product(range(len(ideals)), repeat=2):
            assert ideals[join[a, b]] == ideal_sum(ideals[a], ideals[b])


def test_ideal_from_members_rejects_sets_that_are_not_ideals(z12, f2xy):
    with pytest.raises(ValidationError, match="additively closed"):
        ideal_from_members(z12, [0, 1])
    # {0, 1} is an additive subgroup of F_2[x, y]/(x, y)^2, but x * 1 = x is not in it
    with pytest.raises(ValidationError, match="multiplication"):
        ideal_from_members(f2xy, [0, f2xy.unit.index])
    for ideal in all_ideals(f2xy):
        assert ideal_from_members(f2xy, ideal.members) == ideal


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ideal_from_members_matches_closure_oracle(small_rings, data):
    ring = data.draw(st.sampled_from([r for r in small_rings if r.order <= 16]))
    picks = data.draw(st.sets(st.integers(0, ring.order - 1), max_size=4))
    members = {0} | picks
    if data.draw(st.booleans()):  # close under addition, so some sets are subgroups
        while True:
            grown = members | {ring.add_idx(a, b) for a in members for b in members}
            if grown == members:
                break
            members = grown
    additive = all(ring.add_idx(a, b) in members for a in members for b in members)
    ideal = oracles.ideal_closure_fixpoint(ring, members) == members
    if ideal:
        got = ideal_from_members(ring, sorted(members))
        assert {int(m) for m in got.members} == members
    else:
        with pytest.raises(ValidationError,
                           match="multiplication" if additive else "additively closed"):
            ideal_from_members(ring, sorted(members))
