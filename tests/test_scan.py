"""The label-histogram shift-scan kernel against plain rank-order scans.

Every comparison checks the first-minimizing shifts as well as the
minimum, and the chunked variants shrink the kernel's chunk so that one
scan crosses many chunk boundaries.  ``path`` pins the kernel to one of its
two ways of scoring a chunk, inclusion-exclusion over label histograms or
OR-ed bitmasks, or leaves it its own choice, which takes the label
histogram of the one free position whenever there is only one.
"""

import tracemalloc
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringsieve import bitset
from ringsieve.catalog import dual_numbers, finite_field, ring_c1, socle_plane_ring
from ringsieve.ideals import all_ideals, ideal_generated
from ringsieve.rings import make_cyclic, make_product
from ringsieve.rogers import rogers_check
from ringsieve.sieve import rogers_min_density

RINGS = [
    make_cyclic(12),
    make_cyclic(16),
    socle_plane_ring(2),
    socle_plane_ring(3),
    ring_c1(),
    dual_numbers(3),
    make_product([make_cyclic(2), make_cyclic(2), make_cyclic(2)])[0],
    make_product([make_cyclic(2), socle_plane_ring(2)])[0],
    make_product([make_cyclic(4), make_cyclic(6)])[0],
    make_product([dual_numbers(2), make_cyclic(3)])[0],
    make_product([finite_field(4), make_cyclic(4)])[0],
]
MAX_TUPLES = 2000  # keeps the one-tuple-at-a-time oracle fast
PATHS = {
    "histograms": lambda count, sizes: "histograms",
    "bitmasks": lambda count, sizes: "bitmasks",
    "hits": bitset._scan_path,
}


def _draw_tuple(data, length):
    ring = data.draw(st.sampled_from(RINGS))
    # an index bound that keeps [R:I_2]...[R:I_r] under MAX_TUPLES
    bound = int(MAX_TUPLES ** (1 / max(length - 1, 1)))
    ideals = all_ideals(ring)
    first = data.draw(st.sampled_from(ideals))
    rest = [i for i in ideals if ring.order // i.size <= bound]
    return ring, (first,) + tuple(data.draw(st.sampled_from(rest)) for _ in range(length - 1))


def _assert_ring_scan_matches(ring, ideals):
    report = rogers_check(ring, ideals)
    value, shifts = oracles.pinned_scan(ring, ideals)
    assert report.minimum == value
    assert tuple(s.index for s in report.witness_shifts) == shifts
    assert report.tuples_examined == prod(ring.order // i.size for i in ideals[1:])


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_ring_scan_matches_rank_order_oracle(length, data):
    _assert_ring_scan_matches(*_draw_tuple(data, length))


def test_first_minimizer_where_coset_keys_and_carrier_order_disagree():
    # the cosets of these lines, keyed by their reduced coordinates, come in
    # a different order than their least elements do
    ring = socle_plane_ring(3)
    lines = tuple(ideal_generated(ring, [ring.element(v)])
                  for v in [(0, 1, 0), (0, 1, 1), (0, 0, 1)])
    _assert_ring_scan_matches(ring, lines)
    assert oracles.pinned_scan(ring, lines) == (6, (0, 3, 0))


@pytest.mark.parametrize("path", PATHS)
@given(data=st.data(), chunk=st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_ring_scan_across_chunk_boundaries(path, data, chunk):
    ring, ideals = _draw_tuple(data, data.draw(st.integers(2, 5)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitset, "SCAN_CHUNK", chunk)
        mp.setattr(bitset, "_scan_path", PATHS[path])
        _assert_ring_scan_matches(ring, ideals)


@pytest.mark.parametrize("path", PATHS)
@given(data=st.data(), chunk=st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_rank_order_oracle_on_any_partition(path, data, chunk):
    # labels need not come from cosets: any partition, empty classes included
    n = data.draw(st.integers(1, 30))
    sizes = data.draw(st.lists(st.integers(1, 5), min_size=0, max_size=4))
    base_flags = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    labels = [
        np.array(data.draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)))
        for s in sizes
    ]
    base = {x for x in range(n) if base_flags[x]}
    choices = [[{x for x in range(n) if lab[x] == i} for i in range(s)]
               for lab, s in zip(labels, sizes)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitset, "SCAN_CHUNK", chunk)
        mp.setattr(bitset, "_scan_path", PATHS[path])
        got = bitset.min_union_scan(base_flags, labels, sizes)
    assert got == oracles.first_minimizer_in_rank_order(base, choices)


@given(moduli=st.lists(st.integers(1, 9), min_size=1, max_size=4), chunk=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_min_density_matches_residue_sets(moduli, chunk):
    if prod(moduli[1:]) > MAX_TUPLES:
        moduli = moduli[:3]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitset, "SCAN_CHUNK", chunk)
        report = rogers_min_density(moduli)
    value, shifts = oracles.pinned_residue_scan(moduli)
    period = lcm(*moduli)
    assert report.min_density == Fraction(value, period)
    assert report.witness_shifts == shifts
    assert report.min_density == oracles.min_density_all_shifts(moduli)


@given(moduli=st.lists(st.sampled_from([1, 2, 2, 2, 3]), min_size=1, max_size=14))
@settings(max_examples=40, deadline=None)
def test_many_moduli_of_one_and_two_match_residue_sets(moduli):
    if prod(moduli[1:]) > MAX_TUPLES:
        moduli = moduli[:8]
    report = rogers_min_density(moduli)
    value, shifts = oracles.pinned_residue_scan(moduli)
    assert report.min_density == Fraction(value, lcm(*moduli))
    assert report.witness_shifts == shifts


@pytest.mark.parametrize("repeats", [1, 5, 11])
@pytest.mark.parametrize("ring", [make_cyclic(12), make_product([make_cyclic(2), make_cyclic(2)])[0]],
                         ids=["Z12", "Z2xZ2"])
def test_repeated_unit_and_index_two_ideals_match_rank_order_oracle(ring, repeats):
    ideals = all_ideals(ring)
    unit = next(i for i in ideals if i.size == ring.order)
    halves = [i for i in ideals if 2 * i.size == ring.order]
    for first in ideals:
        _assert_ring_scan_matches(ring, (first,) + (unit,) * repeats)
        for half in halves:
            _assert_ring_scan_matches(ring, (first,) + (half,) * repeats)
            _assert_ring_scan_matches(ring, (first,) + (half,) * repeats + (unit,))


def _peak_mb(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_wide_scans_stay_small():
    # a histogram for every subset of 14 positions took 24 MB and 7 s here;
    # a class that is the whole carrier decides the scan at once
    ring = make_cyclic(64)
    zero, half, unit = (next(i for i in all_ideals(ring) if i.size == s) for s in (1, 32, 64))
    report, peak = _peak_mb(lambda: rogers_check(ring, (zero,) + (half,) * 14))
    assert (report.minimum, report.tuples_examined) == (32, 2**14)
    assert report.witness_shifts == (ring.zero,) * 15 and peak < 2
    report, peak = _peak_mb(lambda: rogers_check(ring, (zero,) + (unit,) * 14 + (half,)))
    assert report.minimum == 64 and report.witness_shifts == (ring.zero,) * 16 and peak < 0.5
    report, peak = _peak_mb(lambda: rogers_min_density([2] * 15))
    assert report.min_density == Fraction(1, 2) and peak < 2
    report, peak = _peak_mb(lambda: rogers_min_density([1] * 15 + [2]))
    assert report.min_density == 1 and report.witness_shifts == (0,) * 16 and peak < 0.5
