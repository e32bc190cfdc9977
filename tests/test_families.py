"""Differential tests on ring families the catalog lacks.

Galois rings GR(p^n, r) are chain rings whose residue field is not prime;
the monomial quotients F_p[x,y]/(x^2, xy, y^3) are local but not chains;
products of three or four local factors exercise the idempotent split.  On
every ring the classification must agree with the triple verification and
with the ideals inside each factor, and every witness must re-verify.
"""

import pytest

import oracles
from ringsieve.catalog import dual_numbers, field_tables, finite_field, socle_plane_ring
from ringsieve.ideals import all_ideals
from ringsieve.localstruct import classify
from ringsieve.rings import (
    RingPresentation,
    format_ring_text,
    make_cyclic,
    make_product,
    parse_ring_text,
    validate_ring,
)
from ringsieve.rogers import counterexample, theorem2_verify


def galois_ring(p: int, n: int, q: int):
    """GR(p^n, r) = (Z/p^n)[t]/(f): the catalog's table of F_q = F_p[t]/(f),
    read with coefficients modulo p^n."""
    p_table, r, mul = field_tables(q)
    assert p_table == p
    sc = {(i, j): tuple(mul[i][j]) for i in range(r) for j in range(i, r)}
    unit = tuple(1 if i == 0 else 0 for i in range(r))
    return validate_ring(RingPresentation((p ** n,) * r, sc, unit))


def monomial_quotient(p: int):
    """F_p[x,y]/(x^2, xy, y^3), basis (1, x, y, y^2)."""
    e = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    zero = (0, 0, 0, 0)
    sc = {(0, j): e[j] for j in range(4)}
    sc.update({(1, 1): zero, (1, 2): zero, (1, 3): zero, (2, 2): e[3], (2, 3): zero,
               (3, 3): zero})
    return validate_ring(RingPresentation((p,) * 4, sc, e[0]))


GR4, GR8, GR9 = galois_ring(2, 2, 4), galois_ring(2, 3, 4), galois_ring(3, 2, 9)
M2, M3 = monomial_quotient(2), monomial_quotient(3)

# name -> (ring, [(order, is_chain) of each local factor, in classify's order])
FAMILIES = {
    "GR(4,2)": (GR4, [(16, True)]),
    "GR(8,2)": (GR8, [(64, True)]),
    "GR(9,2)": (GR9, [(81, True)]),
    "F2[x,y]/(x2,xy,y3)": (M2, [(16, False)]),
    "F3[x,y]/(x2,xy,y3)": (M3, [(81, False)]),
    "GR(4,2)*Z3*M2": (make_product([GR4, make_cyclic(3), M2])[0], None),
    "GR(9,2)*Z2*Z5": (make_product([GR9, make_cyclic(2), make_cyclic(5)])[0], None),
    "M3*Z2*Z5": (make_product([M3, make_cyclic(2), make_cyclic(5)])[0], None),
    "Z4*Z3*Z5*F4": (make_product([make_cyclic(4), make_cyclic(3), make_cyclic(5),
                                  finite_field(4)])[0], None),
    "Z2*Z3*dual2*F2xy": (make_product([make_cyclic(2), make_cyclic(3), dual_numbers(2),
                                       socle_plane_ring(2)])[0], None),
    "GR(4,2)*GR(9,2)*Z3": (make_product([GR4, GR9, make_cyclic(3)])[0], None),
}


def _members(ideal) -> frozenset:
    return frozenset(int(m) for m in ideal.members)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_classification_agrees(name):
    ring, expected = FAMILIES[name]
    verdict = classify(ring)
    decomp = verdict.decomposition
    if expected is not None:
        assert [(f.size, chain) for f, (_, _, chain)
                in zip(decomp.factor_ideals, verdict.per_factor)] == expected
    assert theorem2_verify(ring) == verdict.is_chain_local_product
    # a factor eR is a chain ring iff the ideals of R inside eR are totally ordered
    ideals = [_members(i) for i in all_ideals(ring)]
    for factor, (_, is_local, chain) in zip(decomp.factor_ideals, verdict.per_factor):
        inside = [i for i in ideals if i <= _members(factor)]
        assert is_local
        assert chain == all(a <= b or b <= a for a in inside for b in inside)
    again = parse_ring_text(format_ring_text(ring))
    assert classify(again).per_factor == verdict.per_factor


@pytest.mark.parametrize("name", ["F2[x,y]/(x2,xy,y3)", "F3[x,y]/(x2,xy,y3)", "GR(4,2)*Z3*M2",
                                  "M3*Z2*Z5", "Z2*Z3*dual2*F2xy"])
def test_family_witness_reverifies(name):
    ring, _ = FAMILIES[name]
    assert not classify(ring).is_chain_local_product
    witness = counterexample(ring)
    value = oracles.union_at_shifts(ring, witness.ideals, [s.index for s in witness.shifts])
    baseline = oracles.union_at_shifts(ring, witness.ideals, [0, 0, 0])
    assert (value, baseline) == (witness.union_shifted, witness.union_baseline)
    assert value < baseline
    for ideal in witness.ideals:
        members = sorted(int(m) for m in ideal.members)
        assert oracles.ideal_closure_fixpoint(ring, members) == set(members)
