"""The nilradical kernel behind the ring structure and the p-maximality
test, against oracles that know nothing of Frobenius: nilpotents found by
powering every element, units by a product scan, and chain factors read
off the member sets of a sum closure.  The rings come from the
constructions of test_families and from seeded random polynomial
quotients (Z/n)[x]/(f), none of them in the catalog."""

import random

import numpy as np
import pytest

import oracles
from test_families import FAMILIES
from ringsieve import ideals, orders
from ringsieve.catalog import dual_numbers, ring_c1, socle_plane_ring
from ringsieve.ideals import Ideal, all_ideals, join_table, ring_structure
from ringsieve.localstruct import classify, units_mask
from ringsieve.orders import OrderPresentation, validate_order
from ringsieve.rings import RingPresentation, make_cyclic, make_product, validate_ring
from ringsieve.rogers import theorem2_verify


def polynomial_quotient(n: int, f) -> object:
    """(Z/n)[x]/(f) for the monic f = x^r + f[r-1] x^(r-1) + ... + f[0],
    on the basis 1, x, ..., x^(r-1)."""
    r = len(f)

    def reduce(power):
        c = [int(t == power) for t in range(2 * r - 1)]
        for t in range(2 * r - 2, r - 1, -1):
            top, c[t] = c[t], 0
            for i in range(r):
                c[t - r + i] -= top * f[i]
        return tuple(v % n for v in c[:r])

    sc = {(i, j): reduce(i + j) for i in range(r) for j in range(i, r)}
    return validate_ring(RingPresentation((n,) * r, sc, (1,) + (0,) * (r - 1)))


def random_ring(seed: int):
    """A seeded (Z/n)[x]/(f) of at most 256 elements; odd seeds multiply it
    by a second one, up to 512 elements."""
    rng = random.Random(seed)

    def one(limit):
        n = rng.choice([2, 3, 4, 5, 6, 8, 9, 12])
        r = rng.randint(1, max(1, int(np.log(limit) / np.log(n))))
        return polynomial_quotient(n, [rng.randrange(n) for _ in range(r)])

    ring = one(256)
    if seed % 2:
        other = one(512 // ring.order)
        if ring.order * other.order <= 512:
            ring = make_product([ring, other])[0]
    return ring


RINGS = {name: ring for name, (ring, _) in FAMILIES.items() if ring.order <= 900}
RINGS.update({f"random{seed}": random_ring(seed) for seed in range(12)})


@pytest.mark.parametrize("name", list(RINGS))
def test_kernel_matches_oracles(name):
    ring = RINGS[name]
    structure = ring_structure(ring)
    radical = Ideal(ring, tuple(map(tuple, structure.radical.tolist())))
    nilpotent = oracles.nilpotents_by_powers(ring)
    assert set(radical.members.tolist()) == nilpotent
    assert units_mask(ring).tolist() == oracles.units_by_product_scan(ring)
    # each factor's maximal ideal is its nilpotents, and its verdict is
    # whether the ideals inside it form a chain
    closure, _ = oracles.ideals_by_sum_closure(ring)
    verdict = classify(ring)
    decomp = verdict.decomposition
    for factor, maximal, (_, is_local, chain) in zip(
            decomp.factor_ideals, decomp.maximal_ideals, verdict.per_factor):
        inside = set(factor.members.tolist())
        assert set(maximal.members.tolist()) == inside & nilpotent
        assert is_local and chain == oracles.is_chain([i for i in closure if i <= inside])


def test_random_rings_reach_past_one_local_factor():
    splits = [len(ring_structure(RINGS[f"random{seed}"]).idempotents) for seed in range(12)]
    chains = [classify(RINGS[f"random{seed}"]).is_chain_local_product for seed in range(12)]
    assert max(splits) >= 3 and min(splits) == 1 and not all(chains) and any(chains)


def test_p_maximal_at_a_large_prime():
    # Z[p i] has index p in Z[i]; a linear Frobenius would take p - 1 products
    p = 10_007
    zi = validate_order(OrderPresentation(rank=2, table={(1, 1): (-1, 0)}))
    zpi = validate_order(OrderPresentation(rank=2, table={(1, 1): (-p * p, 0)}))
    assert orders._p_maximal(zi, p) and not orders._p_maximal(zpi, p)


def test_radical_kernel_counts_local_factors():
    # F_2[x]/(x^3 + x) = F_2[x]/(x) x F_2[x]/(x + 1)^2, and F_4 over F_2
    rows, count = ideals._radical_mod_p([[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                         [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
                                         [[0, 0, 1], [0, 1, 0], [0, 0, 1]]], 2)
    assert count == 2 and [list(r) for r in rows] == [[0, 1, 1]]
    rows, count = ideals._radical_mod_p([[[1, 0], [0, 1]], [[0, 1], [1, 1]]], 2)
    assert count == 1 and rows == []


FRESH = {
    "C1": ring_c1,
    "Z60": lambda: make_cyclic(60),
    "Z3*F2xy*Z4": lambda: make_product([make_cyclic(3), socle_plane_ring(2), make_cyclic(4)])[0],
    "dual3*Z10": lambda: make_product([dual_numbers(3), make_cyclic(10)])[0],
}


def test_classify_computes_no_principal_lattice(monkeypatch):
    def refuse(ring):
        raise AssertionError("principal lattices computed")

    monkeypatch.setattr(ideals, "_principal_lattices", refuse)
    assert [classify(build()).is_chain_local_product for build in FRESH.values()] == [
        False, True, False, True]


def test_principal_lattices_run_once_per_ring(monkeypatch):
    calls = []
    real = ideals._principal_lattices

    def counted(ring):
        calls.append(ring.order)
        return real(ring)

    monkeypatch.setattr(ideals, "_principal_lattices", counted)
    for build in FRESH.values():
        ring = build()
        classify(ring)
        all_ideals(ring)
        join_table(ring)
        theorem2_verify(ring)
    assert calls == [16, 60, 96, 90]
