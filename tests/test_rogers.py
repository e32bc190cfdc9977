"""The shift-minimization engine: reports, witnesses, whole-ring verification."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringsieve import catalog, rogers
from ringsieve.catalog import finite_field, ring_c1, socle_plane_ring
from ringsieve.errors import (
    AlreadyChainLocalProduct,
    SearchSpaceTooLarge,
    UniqueMinimalIdeal,
    ZeroRingRejected,
)
from ringsieve.ideals import all_ideals, ideal_generated, join_table
from ringsieve.localstruct import classify
from ringsieve.rogers import (
    coset_representatives,
    counterexample,
    rogers_check,
    socle_witness,
    theorem2_verify,
)
from ringsieve.rings import make_cyclic, make_product, make_quotient


def _three_lines(f2xy):
    return (
        ideal_generated(f2xy, [f2xy.element((0, 1, 0))]),
        ideal_generated(f2xy, [f2xy.element((0, 0, 1))]),
        ideal_generated(f2xy, [f2xy.element((0, 1, 1))]),
    )


def test_key_example_full_report(f2xy):
    ix, iy, ixy = _three_lines(f2xy)
    report = rogers_check(f2xy, (ix, iy, ixy))
    assert report.baseline == 4
    assert report.minimum == 3
    assert report.satisfied is False
    assert [s.coords for s in report.witness_shifts] == [
        (0, 0, 0),
        (0, 1, 0),
        (0, 0, 0),
    ]
    assert report.tuples_examined == 16
    # oracle: the minimum over ALL shift tuples (nothing pinned) agrees
    assert oracles.min_union_all_shifts(f2xy, (ix, iy, ixy)) == 3


def test_single_ideal_trivial(f2xy):
    ix, _, _ = _three_lines(f2xy)
    report = rogers_check(f2xy, (ix,))
    assert report.minimum == report.baseline == 2
    assert report.satisfied and report.tuples_examined == 1


def test_every_pair_in_z12_satisfied(z12):
    ideals = all_ideals(z12)
    for a, b in itertools.combinations_with_replacement(ideals, 2):
        report = rogers_check(z12, (a, b))
        assert report.satisfied and report.minimum == report.baseline


def test_verify_only_mode(f2xy):
    ix, iy, ixy = _three_lines(f2xy)
    report = rogers_check(
        f2xy, (ix, iy, ixy), shifts=[(0, 0, 0), (0, 1, 0), (0, 0, 0)]
    )
    assert report.minimum == 3
    assert report.tuples_examined == 1
    assert not report.satisfied
    # re-evaluating the returned witness reproduces the minimum
    again = rogers_check(f2xy, (ix, iy, ixy), shifts=report.witness_shifts)
    assert again.minimum == report.minimum


def test_full_report_witness_reevaluates(z12, f2xy):
    for ring, ideals in [
        (z12, tuple(all_ideals(z12))[1:4]),
        (f2xy, _three_lines(f2xy)),
    ]:
        report = rogers_check(ring, ideals)
        again = rogers_check(ring, ideals, shifts=report.witness_shifts)
        assert again.minimum == report.minimum
        assert report.witness_shifts[0] == ring.zero


def test_search_space_cap():
    ring = make_cyclic(64)
    zero = ideal_generated(ring, [])
    with pytest.raises(SearchSpaceTooLarge) as exc:
        rogers_check(ring, (zero, zero, zero), tuple_cap=1000)
    assert exc.value.required == 64 * 64


def test_workers_do_not_change_report(f2xy):
    ix, iy, ixy = _three_lines(f2xy)
    base = rogers_check(f2xy, (ix, iy, ixy), workers=1)
    for workers in (2, 3, 4, 7):
        other = rogers_check(f2xy, (ix, iy, ixy), workers=workers)
        assert other == base


def test_scans_start_no_thread(f2xy, monkeypatch):
    import threading

    from ringsieve.sieve import rogers_min_density

    def refuse(self):
        raise AssertionError("the scan started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = rogers_check(f2xy, _three_lines(f2xy), workers=4)
    assert report.tuples_examined == 16
    assert rogers_min_density([4, 6, 9], workers=4).residues == 14


def test_zero_ring_rejected():
    zero = make_cyclic(1)
    with pytest.raises(ZeroRingRejected):
        theorem2_verify(zero)


def test_translation_invariance(small_rings):
    # |union (a_j + t + I_j)| = |union (a_j + I_j)| for every t
    for ring in small_rings[:6]:
        ideals = tuple(all_ideals(ring))[:3]
        if len(ideals) < 2:
            continue
        shift_sets = [(0,) * len(ideals), tuple(range(len(ideals)))]
        for shifts in shift_sets:
            base = oracles.union_at_shifts(ring, ideals, shifts)
            for t in range(ring.order):
                moved = [ring.add_idx(s, t) for s in shifts]
                assert oracles.union_at_shifts(ring, ideals, moved) == base


def test_coset_representative_reduction(small_rings):
    # the union size depends on each shift only through its coset
    for ring in small_rings[:6]:
        ideals = tuple(all_ideals(ring))[1:3]
        if len(ideals) < 2:
            continue
        for a in range(min(ring.order, 6)):
            for delta in [int(m) for m in ideals[0].members][:3]:
                shifted = ring.add_idx(a, delta)
                assert oracles.union_at_shifts(
                    ring, ideals, (a, 0)
                ) == oracles.union_at_shifts(ring, ideals, (shifted, 0))


def test_representatives_are_least_of_their_coset(small_rings, f3xy):
    # in f3xy and Z/4 x Z/6 some cosets, keyed by reduced coordinates, come
    # in a different order than their least elements
    for ring in small_rings[:8] + [f3xy, make_product([make_cyclic(4), make_cyclic(6)])[0]]:
        for ideal in all_ideals(ring):
            reps, labels = coset_representatives(ideal)
            reps, labels = [int(r) for r in reps], [int(c) for c in labels]
            assert reps == sorted(reps)
            assert len(labels) == ring.order
            members = [int(m) for m in ideal.members]
            seen = set()
            for number, rep in enumerate(reps):
                coset = {x for x in range(ring.order) if labels[x] == number}
                assert min(coset) == rep  # rep is the least member
                assert coset == {ring.add_idx(rep, m) for m in members}  # coset = rep + I
                assert seen.isdisjoint(coset)
                seen |= coset
            assert seen == set(range(ring.order))


def test_chain_ring_subsets_never_shrink(z8):
    rings = [z8, make_cyclic(9), finite_field(4)]
    for ring in rings:
        ideals = all_ideals(ring)
        for r in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(ideals, r):
                report = rogers_check(ring, combo)
                assert report.satisfied and report.minimum == report.baseline


def test_product_multiplicativity(f2xy):
    # union size of product ideals with componentwise shifts factors exactly
    z4 = make_cyclic(4)
    product, (pa, pb) = make_product([z4, f2xy])
    ia = ideal_generated(z4, [z4.element((2,))])
    ib = ideal_generated(f2xy, [f2xy.element((0, 1, 0))])
    # product ideal = preimage intersection
    import numpy as np
    from ringsieve.ideals import ideal_from_members

    amap, bmap = pa.index_map(), pb.index_map()
    amem = np.isin(amap, [int(m) for m in ia.members])
    bmem = np.isin(bmap, [int(m) for m in ib.members])
    big = ideal_from_members(product, np.nonzero(amem & bmem)[0])
    for sa in range(4):
        for sb in range(8):
            la = oracles.union_at_shifts(z4, (ia,), (sa,))
            lb = oracles.union_at_shifts(f2xy, (ib,), (sb,))
            shift = next(
                x
                for x in range(product.order)
                if int(amap[x]) == sa and int(bmap[x]) == sb
            )
            lp = oracles.union_at_shifts(product, (big,), (shift,))
            assert lp == la * lb


def test_socle_witness_q2(f2xy):
    witness = socle_witness(f2xy)
    assert witness.union_shifted == 3 and witness.union_baseline == 4
    sizes = [i.size for i in witness.ideals]
    assert sizes == [2, 2, 2]
    assert [s.coords for s in witness.shifts] == [(0,) * 3, (0, 1, 0), (0,) * 3]


def test_socle_witness_q3(f3xy):
    witness = socle_witness(f3xy)
    assert witness.union_shifted == 6 and witness.union_baseline == 7


def test_socle_witness_needs_fat_socle(z8):
    with pytest.raises(UniqueMinimalIdeal):
        socle_witness(z8)
    with pytest.raises(UniqueMinimalIdeal):
        socle_witness(finite_field(5))


def test_socle_witness_needs_local_ring(z12):
    from ringsieve.errors import NotLocal

    with pytest.raises(NotLocal):
        socle_witness(z12)


def test_counterexample_on_chain_product_errors(z12):
    with pytest.raises(AlreadyChainLocalProduct):
        counterexample(z12)


def test_counterexample_product_inflation(f2xy):
    product, _ = make_product([make_cyclic(4), f2xy])
    witness = counterexample(product)
    assert witness.union_baseline == 16
    assert witness.union_shifted == 12
    # independent re-evaluation
    assert (
        oracles.union_at_shifts(
            product, witness.ideals, [s.index for s in witness.shifts]
        )
        == 12
    )


def test_counterexample_c1_lifting_doubles(c1):
    witness = counterexample(c1)
    assert witness.union_baseline == 8  # 2 x the quotient witness's 4
    assert witness.union_shifted == 6  # 2 x the quotient witness's 3
    assert (
        oracles.union_at_shifts(c1, witness.ideals, [s.index for s in witness.shifts])
        == 6
    )


def test_witness_builders_decompose_each_ring_once(monkeypatch):
    # every local decomposition starts from the primitive idempotents; the
    # quotient by the socle is not decomposed, its maximal ideal is passed down
    import ringsieve.localstruct as localstruct
    from ringsieve.catalog import order_z2i
    from ringsieve.orders import nonmaximality_probe

    visited = {}
    original = localstruct.primitive_idempotents

    def counted(ring):
        visited.setdefault(id(ring), [ring, 0])[1] += 1
        return original(ring)

    monkeypatch.setattr(localstruct, "primitive_idempotents", counted)
    counterexample(ring_c1())
    assert [(ring.order, n) for ring, n in visited.values()] == [(16, 1)]
    visited.clear()
    assert nonmaximality_probe(order_z2i(), 4) is not None
    assert [(ring.order, n) for ring, n in visited.values()] == [(4, 1), (16, 1)]


def test_witness_builders_check_each_ring_local_once(monkeypatch):
    # locality comes with the ring's structure, and each maximal ideal is
    # passed along, so no witness builder reads unit flags
    import ringsieve.localstruct as localstruct

    visited = {}
    original = localstruct.units_mask

    def counted(ring):
        visited.setdefault(id(ring), [ring, 0])[1] += 1
        return original(ring)

    monkeypatch.setattr(localstruct, "units_mask", counted)
    counterexample(ring_c1())
    assert sorted((ring.order, n) for ring, n in visited.values()) == []



def test_counterexample_builds_one_factor_ring_per_level(monkeypatch):
    # classify builds no ring; counterexample builds R/(1 - e)R for the
    # offending factor of a product only, plus a quotient by the socle when
    # it recurses; a local ring is its own factor and is not copied
    built = []
    original = rogers.make_quotient

    def counted(ring, ideal):
        built.append((ring.order, ideal.size))
        return original(ring, ideal)

    monkeypatch.setattr(rogers, "make_quotient", counted)
    counterexample(ring_c1())
    assert built == [(16, 2)]
    built.clear()
    counterexample(make_product([make_cyclic(3), socle_plane_ring(2), make_cyclic(4)])[0])
    assert built == [(96, 12)]


def _walk_rings():
    return {
        "Zn:60": make_cyclic(60),
        "Z12": make_cyclic(12),
        "F2xy": socle_plane_ring(2),
        "F2^4": make_product([make_cyclic(2)] * 4)[0],
    }


@pytest.mark.parametrize("r_max", [4, 6])
@pytest.mark.parametrize("name", ["Zn:60", "Z12", "F2xy", "F2^4"])
def test_rmax_walk_scans_each_antichain_once(name, r_max, monkeypatch):
    # every full scan of the walk is one antichain of >= 4 ideals, in the
    # order the multiset walk first meets them; F2xy fails on a triple first
    # and has no antichain of four ideals
    ring = _walk_rings()[name]
    scanned = []
    original = rogers.rogers_check

    def counted(ring, ideals, shifts=None, **kwargs):
        if shifts is None:
            scanned.append(tuple(ideal.mask for ideal in ideals))
        return original(ring, ideals, shifts=shifts, **kwargs)

    monkeypatch.setattr(rogers, "rogers_check", counted)
    theorem2_verify(ring, r_max=r_max)
    ideals = all_ideals(ring)
    members = [frozenset(int(m) for m in ideal.members) for ideal in ideals]
    expected = oracles.antichains_met_by_multisets(members, 4, r_max)
    assert scanned == [tuple(ideals[i].mask for i in chosen) for chosen in expected]
    assert rogers._antichain_count(join_table(ring), r_max, 10 ** 7) == len(expected)
    if name == "Zn:60":
        assert len(scanned) == 1  # the four ideals of index 4, 6, 10 and 15


@pytest.mark.parametrize("r_max", [4, 6, 8])
def test_rmax_verdicts(r_max):
    # the verdicts of the walk over every multiset of up to r_max ideals
    rings = _walk_rings()
    rings["Z12xF2xy"] = make_product([make_cyclic(12), socle_plane_ring(2)])[0]
    got = {}
    for name, ring in rings.items():
        try:
            got[name] = theorem2_verify(ring, r_max=r_max)
        except SearchSpaceTooLarge:
            got[name] = "too large"
    # Z12xF2xy has 9,301 antichains of 4 to 8 ideals, far below the tuple cap
    assert got == {"Zn:60": True, "Z12": True, "F2xy": False, "F2^4": True, "Z12xF2xy": False}

def test_theorem2_examples(z12, f2xy):
    assert theorem2_verify(z12) is True
    assert theorem2_verify(f2xy) is False
    assert theorem2_verify(finite_field(5)) is True


def test_theorem2_matches_classification(small_rings):
    for ring in small_rings:
        assert theorem2_verify(ring) == classify(ring).is_chain_local_product


def test_theorem2_higher_r(z12, f2xy):
    assert theorem2_verify(z12, r_max=4) is True
    assert theorem2_verify(f2xy, r_max=4) is False
    with pytest.raises(ValueError):
        theorem2_verify(z12, r_max=2)
    # the cap bounds the antichains of 4 to r_max ideals, the sets the walk
    # scans: Z12's six ideals form none, F2^4's sixteen form 25 of four
    # ideals and 32 of four or more
    assert theorem2_verify(z12, r_max=10, tuple_cap=1) is True
    f2_4 = _walk_rings()["F2^4"]
    assert [rogers._antichain_count(join_table(f2_4), r_max, 32) for r_max in (4, 10)] == [25, 32]
    with pytest.raises(SearchSpaceTooLarge, match="at least .* tuples exceeds cap 24"):
        theorem2_verify(f2_4, r_max=4, tuple_cap=24)
    with pytest.raises(SearchSpaceTooLarge, match="at least .* tuples exceeds cap 31"):
        theorem2_verify(f2_4, r_max=10, tuple_cap=31)


SMALL_CATALOG = ("Zn:2", "Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:12", "Fq:4", "dual:2", "dual:3",
                 "socle2:2", "socle2:3", "C1")


@st.composite
def catalog_rings_and_quotients(draw):
    """A small catalog ring or product of two, or a quotient of a product
    by one of its proper ideals."""
    names = draw(st.lists(st.sampled_from(SMALL_CATALOG), min_size=1, max_size=2))
    factors = [catalog.resolve(name)[1] for name in names]
    if len(factors) == 1:
        return factors[0]
    if factors[0].order * factors[1].order > 100:
        factors = factors[:1]
    ring = factors[0] if len(factors) == 1 else make_product(factors)[0]
    if draw(st.booleans()):
        ideal = draw(st.sampled_from(all_ideals(ring)[:-1]))
        ring = make_quotient(ring, ideal)[0]
    return ring


@given(ring=catalog_rings_and_quotients(), chunk=st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7]))
@settings(max_examples=40, deadline=None)
def test_triple_kernel_matches_set_oracle(ring, chunk):
    ideals = all_ideals(ring)
    expected = oracles.first_failing_triple(ring, ideals)
    confirmed = []
    real_check = rogers.rogers_check

    def record(ring_, triple, **kwargs):
        confirmed.append(tuple(ideals.index(i) for i in triple))
        return real_check(ring_, triple, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(rogers, "TRIPLE_CHUNK", chunk)
        mp.setattr(rogers, "rogers_check", record)
        holds = theorem2_verify(ring)
    assert holds == (expected is None)
    assert confirmed == ([] if expected is None else [expected])


def test_meet_table_indexes_intersections(small_rings, f3xy):
    for ring in small_rings + [f3xy, make_product([make_cyclic(12), socle_plane_ring(2)])[0]]:
        ideals = all_ideals(ring)
        meet = rogers._meet_table(join_table(ring))
        for a, b in itertools.product(range(len(ideals)), repeat=2):
            assert ideals[meet[a, b]].mask == ideals[a].mask & ideals[b].mask


def test_triple_criterion_against_full_scan(small_rings):
    # dual route: the intersection-pattern criterion vs the honest scan
    for ring in small_rings:
        ideals = all_ideals(ring)
        triples = list(itertools.combinations_with_replacement(ideals, 3))
        for triple in triples:
            space = 1
            for ideal in triple[1:]:
                space *= ring.order // ideal.size
            if space > 3000:
                continue
            report = rogers_check(ring, triple)
            sets = [i.members.tolist() for i in triple]
            assert oracles.triple_is_satisfied(ring, *sets) == report.satisfied, triple


def test_triple_criterion_is_role_symmetric(small_rings):
    for ring in small_rings:
        ideals = all_ideals(ring)
        for triple in itertools.combinations_with_replacement(ideals, 3):
            sets = [i.members.tolist() for i in triple]
            verdicts = {
                oracles.triple_is_satisfied(ring, *perm) for perm in itertools.permutations(sets)
            }
            assert len(verdicts) == 1


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_minimum_matches_unpinned_oracle(small_rings, data):
    ring = data.draw(st.sampled_from([r for r in small_rings if r.order <= 16]))
    ideals = all_ideals(ring)
    triple = tuple(
        data.draw(st.sampled_from(ideals)) for _ in range(data.draw(st.integers(1, 3)))
    )
    space = 1
    for ideal in triple[1:]:
        space *= ring.order // ideal.size
    if space > 2048 or ring.order ** len(triple) > 20000:
        return
    report = rogers_check(ring, triple)
    assert report.minimum == oracles.min_union_all_shifts(ring, triple)


def test_witnesses_always_shrink(small_rings):
    for ring in small_rings:
        if classify(ring).is_chain_local_product:
            continue
        witness = counterexample(ring)
        value = oracles.union_at_shifts(
            ring, witness.ideals, [s.index for s in witness.shifts]
        )
        baseline = oracles.union_at_shifts(ring, witness.ideals, [0, 0, 0])
        assert value == witness.union_shifted < witness.union_baseline == baseline
