"""The ring's structure, built factor by factor, against oracles that know
nothing of the split: units by a product scan, ideals and their sums by a
closure of member sets."""

import gc
import weakref

import numpy as np
import pytest

import oracles
from test_families import FAMILIES, galois_ring
from ringsieve.catalog import socle_plane_ring
from ringsieve.ideals import all_ideals, join_table, ring_structure
from ringsieve.localstruct import classify, units_mask
from ringsieve.rings import make_cyclic, make_product

RINGS = {
    "GR(4,2)": lambda: galois_ring(2, 2, 4),
    "F3xy": lambda: socle_plane_ring(3),
    "Z64": lambda: make_cyclic(64),
    "F2^5": lambda: make_product([make_cyclic(2)] * 5)[0],
    "Z4*Z3*Z5*F4": lambda: FAMILIES["Z4*Z3*Z5*F4"][0],
    "Z2*Z3*dual2*F2xy": lambda: FAMILIES["Z2*Z3*dual2*F2xy"][0],
    "Z4100": lambda: make_cyclic(4100, carrier_bound=4100),  # past the default carrier bound
}


@pytest.mark.parametrize("name", list(RINGS))
def test_structure_matches_independent_oracles(name):
    ring = RINGS[name]()
    assert units_mask(ring).tolist() == oracles.units_by_product_scan(ring)
    expected, sums = oracles.ideals_by_sum_closure(ring)
    ideals = [frozenset(i.members.tolist()) for i in all_ideals(ring)]
    assert ideals == sorted(expected, key=lambda s: (len(s), sorted(s)))
    join = join_table(ring)
    for a, b in zip(*np.triu_indices(len(ideals))):
        assert ideals[join[a, b]] == sums[ideals[a], ideals[b]]
    # one factor per primitive idempotent, each of them local
    assert len(ring_structure(ring).idempotents) == len(classify(ring).per_factor)


def test_a_dropped_ring_is_freed_at_once():
    # the structure refers to no Element or Ideal, so no cycle holds a ring
    ring = make_product([make_cyclic(12), socle_plane_ring(2)])[0]
    all_ideals(ring)
    classify(ring)
    gone = weakref.ref(ring)
    gc.disable()
    try:
        del ring
        assert gone() is None
    finally:
        gc.enable()
