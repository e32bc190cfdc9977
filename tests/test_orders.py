"""Orders, HNF/SNF plumbing at the order level, quotients, and the probe."""

import random

import pytest

import oracles
import ringsieve.orders as orders
from ringsieve.catalog import dual_numbers, order_z2i, order_zi
from ringsieve.errors import (
    NotAnIdeal,
    NotAssociative,
    NotCommutative,
    RankDeficient,
    ZeroRingRejected,
)
from ringsieve.localstruct import classify
from ringsieve.orders import (
    IntegerLattice,
    OrderPresentation,
    discriminant,
    format_order_text,
    lattice_intersect,
    nonmaximality_probe,
    order_ideal,
    order_quotient,
    parse_order_text,
    push_to_quotient,
    rogers_check_order,
    validate_order,
)
from ringsieve.rings import make_cyclic, make_product


@pytest.fixture(scope="module")
def z2i():
    return order_z2i()


@pytest.fixture(scope="module")
def zi():
    return order_zi()


def test_validate_z2i(z2i):
    assert z2i.rank == 2
    assert z2i.mul((0, 1), (0, 1)) == (-4, 0)
    assert z2i.mul((2, 3), (5, -1)) == (10 + 12, 15 - 2)  # (2+3t)(5-t), t^2=-4


def test_validate_idempotent_generator_order():
    # t^2 = t is a legitimate commutative associative table
    order = validate_order(OrderPresentation(rank=2, table={(1, 1): (0, 1)}))
    assert order.mul((0, 1), (0, 1)) == (0, 1)


def test_noncommutative_table_rejected():
    with pytest.raises(NotCommutative):
        validate_order(
            OrderPresentation(
                rank=3,
                table={
                    (1, 1): (1, 0, 0),
                    (1, 2): (0, 1, 0),
                    (2, 1): (0, 0, 1),
                    (2, 2): (1, 0, 0),
                },
            )
        )


def test_nonassociative_table_rejected():
    # x*x = y, x*y = x, y*y = 0 fails associativity
    with pytest.raises(NotAssociative):
        validate_order(
            OrderPresentation(
                rank=3,
                table={
                    (1, 1): (0, 0, 1),
                    (1, 2): (0, 1, 0),
                    (2, 2): (0, 0, 0),
                },
            )
        )


def test_order_ideal_principal_two(z2i):
    lat = order_ideal(z2i, [(2, 0)])
    assert lat.basis == ((2, 0), (0, 2))
    assert lat.index == 4


def test_order_ideal_two_generators(z2i):
    # closure rows are (2,1), (-4,2), (4,0), (0,4); HNF is ((2,1),(0,2))
    lat = order_ideal(z2i, [(2, 1), (4, 0)])
    assert lat.basis == ((2, 1), (0, 2))
    assert lat.index == 4
    for row in [(2, 1), (-4, 2), (4, 0), (0, 4)]:
        assert lat.contains(row)


def test_order_ideal_rejects_zero(z2i):
    with pytest.raises(RankDeficient):
        order_ideal(z2i, [(0, 0)])
    with pytest.raises(RankDeficient):
        order_ideal(z2i, [])


def test_lattice_intersections(z2i):
    i1 = order_ideal(z2i, [(2, 0)])
    i2 = order_ideal(z2i, [(0, 1)])
    assert i2.basis == ((4, 0), (0, 1))
    i12 = lattice_intersect(i1, i2)
    assert i12.basis == ((4, 0), (0, 2)) and i12.index == 8
    assert lattice_intersect(i1, i1) == i1
    i3 = order_ideal(z2i, [(2, 1), (4, 0)])
    common = lattice_intersect(i12, i3)
    # canonical form of the same lattice as rows ((4,2),(0,2))
    assert common.basis == ((4, 0), (0, 2)) and common.index == 8


def test_order_quotient_by_two(z2i):
    ring, proj = order_quotient(z2i, order_ideal(z2i, [(2, 0)]))
    assert ring.order == 4
    verdict = classify(ring)
    assert verdict.is_chain_local_product and len(verdict.per_factor) == 1
    # oracle: exhaustive isomorphism search against F_2[t]/(t^2)
    assert oracles.unit_preserving_isomorphism_exists(ring, dual_numbers(2))
    assert not oracles.unit_preserving_isomorphism_exists(ring, make_cyclic(4))


def test_order_quotient_by_common_intersection(z2i):
    lat = IntegerLattice(((4, 0), (0, 2)))
    ring, _ = order_quotient(z2i, lat)
    assert ring.order == 8


def test_order_quotient_rejects_unit_lattice(z2i):
    with pytest.raises(ZeroRingRejected):
        order_quotient(z2i, IntegerLattice(((1, 0), (0, 1))))


def test_order_quotient_rejects_non_ideal(z2i):
    # Z x 2Zt is additive but not closed under t: 1*t = t escapes
    with pytest.raises(NotAnIdeal):
        order_quotient(z2i, IntegerLattice(((1, 0), (0, 2))))


def test_quotient_projection_is_multiplicative(z2i):
    import random

    ring, proj = order_quotient(z2i, IntegerLattice(((4, 0), (0, 2))))
    rng = random.Random(11)
    for _ in range(80):
        x = tuple(rng.randint(-30, 30) for _ in range(2))
        y = tuple(rng.randint(-30, 30) for _ in range(2))
        assert proj(z2i.mul(x, y)) == ring.mul(proj(x), proj(y))


def test_rogers_check_order_key_example(z2i):
    gens = [[(2, 0)], [(0, 1)], [(2, 1), (4, 0)]]
    report = rogers_check_order(z2i, gens)
    assert report.ideals[0].ring.order == 8
    assert report.baseline == 4
    assert report.minimum == 3
    assert report.satisfied is False
    # the winning shift is the image of 2 (coords compare across the two
    # deterministic quotient builds)
    _, _, ring, proj, images = push_to_quotient(z2i, gens)
    assert report.witness_shifts[1].coords == proj((2, 0)).coords
    # and the shifted middle ideal lands inside the union of the others
    shifted = 0
    for m in images[1].members:
        shifted |= 1 << ring.add_idx(proj((2, 0)).index, int(m))
    assert shifted & ~(images[0].mask | images[2].mask) == 0


def test_rogers_check_order_generator_presentation_invariance(z2i):
    # same ideals, different generator presentations -> identical report
    a = rogers_check_order(z2i, [[(2, 0)], [(0, 1)], [(2, 1), (4, 0)]])
    b = rogers_check_order(
        z2i, [[(2, 0), (4, 0)], [(0, 1), (0, 2)], [(2, 1), (4, 0), (2, 3)]]
    )
    assert a.baseline == b.baseline and a.minimum == b.minimum
    assert [s.coords for s in a.witness_shifts] == [s.coords for s in b.witness_shifts]


def test_rogers_check_order_maximal_order_satisfied(zi):
    triples = [
        [[(2, 0)], [(0, 1)], [(1, 1)]],
        [[(3, 0)], [(1, 1)], [(2, 1)]],
        [[(5, 0)], [(2, 1)], [(2, -1)]],
    ]
    for gens in triples:
        report = rogers_check_order(zi, gens)
        assert report.satisfied and report.minimum == report.baseline


def test_rogers_check_order_single_ideal(z2i):
    report = rogers_check_order(z2i, [[(2, 0)]])
    assert report.satisfied and report.minimum == report.baseline


def test_order_check_verify_only_shifts(z2i):
    gens = [[(2, 0)], [(0, 1)], [(2, 1), (4, 0)]]
    report = rogers_check_order(z2i, gens, shifts=[(0, 0), (2, 0), (0, 0)])
    assert report.minimum == 3 and not report.satisfied and report.tuples_examined == 1


def test_probe_z2i_hits_at_four(z2i):
    found = nonmaximality_probe(z2i, 4)
    assert found is not None
    assert found.conductor == 4
    assert found.quotient.order == 16
    assert not found.report.satisfied
    assert found.report.minimum < found.report.baseline


def test_probe_gaussian_integers_clean(zi):
    assert nonmaximality_probe(zi, 20) is None


def test_probe_rejects_trivial_bound(z2i):
    with pytest.raises(ValueError):
        nonmaximality_probe(z2i, 1)


def test_probe_witness_feeds_back(z2i):
    found = nonmaximality_probe(z2i, 4)
    report = rogers_check_order(
        z2i, list(found.ideal_generators), shifts=list(found.shifts)
    )
    assert not report.satisfied


def test_ideal_lattice_closure_property(z2i, zi):
    basis = [(1, 0), (0, 1)]
    for order, gens in [
        (z2i, [(2, 1), (4, 0)]),
        (z2i, [(6, 2)]),
        (zi, [(3, 1)]),
    ]:
        lat = order_ideal(order, gens)
        for row in lat.basis:
            for b in basis:
                assert lat.contains(order.mul(row, b))


def test_quotient_order_equals_det(z2i):
    for gens in [[(2, 0)], [(0, 1)], [(2, 1), (4, 0)], [(3, 0)], [(5, 1)]]:
        lat = order_ideal(z2i, gens)
        ring, _ = order_quotient(z2i, lat)
        assert ring.order == lat.index


def test_order_file_round_trip(z2i):
    text = format_order_text(z2i)
    back = parse_order_text(text)
    assert back.rank == 2 and back.basis_product(1, 1) == (-4, 0)
    parsed = parse_order_text("# gaussian\norder 2\nmul 2 2 -1 0\n")
    assert parsed.mul((0, 1), (0, 1)) == (-1, 0)


def _quadratic(a, b):
    """Z[t]/(t^2 - b t - a), basis (1, t)."""
    return validate_order(OrderPresentation(rank=2, table={(1, 1): (a, b)}))


def _cubic(c0, c1, c2, k=1):
    """The order with basis (1, k t, k t^2) in Z[t]/(t^3 + c2 t^2 + c1 t + c0)."""
    t3 = (-c0, -c1, -c2)  # t^3 in the basis (1, t, t^2)
    t4 = (-c2 * t3[0], -c0 - c2 * t3[1], -c1 - c2 * t3[2])  # t * t^3
    return validate_order(OrderPresentation(rank=3, table={
        (1, 1): (0, 0, k),
        (1, 2): (k * k * t3[0], k * t3[1], k * t3[2]),
        (2, 2): (k * k * t4[0], k * t4[1], k * t4[2]),
    }))


def _families():
    """(name, order, closed-form discriminant or None)."""
    out = [(f"Z[sqrt {d}]", _quadratic(d, 0), 4 * d) for d in (-7, -5, -3, -1, 2, 3, 5, 12)]
    out += [(f"Z[(1+sqrt {d})/2]", _quadratic((d - 1) // 4, 1), d) for d in (-15, -7, -3, 5, 13)]
    out += [(f"Z[{f}i]", _quadratic(-f * f, 0), -4 * f * f) for f in (2, 3, 6)]
    out += [(f"Z[cbrt {m}]", _cubic(-m, 0, 0), -27 * m * m) for m in (2, 3, 4, 10)]
    out += [
        ("Z[t]/(t^2)", _quadratic(0, 0), 0),
        ("Z[t]/(t^2 - 1)", _quadratic(1, 0), 4),
        ("Z[t]/(t^3)", _cubic(0, 0, 0), 0),
        ("Z", validate_order(OrderPresentation(rank=1)), 1),
    ]
    return out


def _trace_form(order):
    """Tr(b_i b_j) from order.mul, the trace read as the diagonal sum of
    the multiplication matrix."""
    n = order.rank
    basis = [tuple(int(l == t) for l in range(n)) for t in range(n)]

    def trace(x):
        return sum(order.mul(x, b)[i] for i, b in enumerate(basis))

    return [[trace(order.mul(a, b)) for b in basis] for a in basis]


def test_discriminant_closed_forms():
    for name, order, disc in _families():
        assert discriminant(order) == disc, name


def _random_orders(seed, count):
    rng = random.Random(seed)
    out = [_quadratic(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(count)]
    out += [_cubic(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3))
            for _ in range(count)]
    return out


def test_discriminant_matches_bareiss_on_random_tables():
    for order in _random_orders(7, 40):
        assert discriminant(order) == oracles.det_bareiss(_trace_form(order))


def _first_failing_conductor(order, bound):
    """The first n in 2..bound with O/nO not a chain-local product."""
    for n in range(2, bound + 1):
        lattice = order_ideal(order, [tuple(n * int(l == 0) for l in range(order.rank))])
        if not classify(order_quotient(order, lattice)[0]).is_chain_local_product:
            return n
    return None


def test_probe_classifies_only_conductors_that_can_fail_first(monkeypatch):
    seen = []

    def recording(ring):
        seen.append(ring.order)
        return classify(ring)

    monkeypatch.setattr(orders, "classify", recording)
    randoms = [(f"random {i}", order, oracles.det_bareiss(_trace_form(order)))
               for i, order in enumerate(_random_orders(11, 6))]
    for name, order, disc in _families() + randoms:
        bound = 12 if order.rank <= 2 else 6
        seen.clear()
        found = nonmaximality_probe(order, bound)
        expected = _first_failing_conductor(order, bound)
        assert (found and found.conductor) == expected, name
        last = bound if expected is None else expected
        # p and p^2, for the p with p^2 | disc that are not p-maximal
        primes = [p for p in range(2, last + 1)
                  if all(p % q for q in range(2, p)) and disc % (p * p) == 0
                  and not (disc and orders._p_maximal(order, p))]
        kept = [n for n in range(2, last + 1) if any(n in (p, p * p) for p in primes)]
        assert seen == [n ** order.rank for n in kept], name


def test_push_lattice_matches_lift_membership():
    rng = random.Random(3)
    checked = 0
    for name, order, _ in _families():
        for _ in range(3):
            try:
                lattices = [order_ideal(order, [tuple(rng.randint(-6, 6) for _ in range(order.rank))
                                                for _ in range(rng.randint(1, 2))])
                            for _ in range(2)]
            except RankDeficient:  # a zero divisor of Z[t]/(t^2) spans no full-rank ideal
                continue
            common = lattice_intersect(*lattices)
            if not 1 < common.index <= 2048:
                continue
            checked += 1
            ring, proj = order_quotient(order, common)
            for lattice in lattices:
                expected = oracles.image_by_lifts(
                    ring, lambda x: proj.section(ring.element_at(x)), lattice.basis)
                assert proj.push_lattice(lattice).mask == expected, name
    assert checked >= 40


def _square_part(d):
    """The largest f with f^2 | d, for d != 0."""
    return max(f for f in range(1, abs(d) + 1) if d % (f * f) == 0)


def _maximal_closed_forms():
    """(name, order, [O_K : O]) for orders whose index in the maximal order is known."""
    out = []
    for d in range(-30, 31):
        f = _square_part(d) if d else 1
        s = d // (f * f)  # squarefree; O_K is Z[(1 + sqrt s)/2] when s = 1 mod 4, else Z[sqrt s]
        if s not in (0, 1):
            out.append((f"Z[sqrt {d}]", _quadratic(d, 0), f * (2 if s % 4 == 1 else 1)))
    out += [(f"Z[{f}i]", _quadratic(-f * f, 0), f) for f in range(1, 13)]
    for m in range(2, 41):
        if all(m % (q ** 3) for q in range(2, m + 1)):
            # m = a b^2 with a, b squarefree and coprime; b is the square part of m
            b = _square_part(m)
            out.append((f"Z[cbrt {m}]", _cubic(-m, 0, 0), 3 * b if m % 9 in (1, 8) else b))
    return out


def test_p_maximal_closed_forms():
    # O is p-maximal iff p does not divide [O_K : O]
    forms = _maximal_closed_forms()
    assert len(forms) >= 90
    for name, order, index in forms:
        for p in (2, 3, 5, 7):
            assert orders._p_maximal(order, p) == (index % p != 0), (name, p)


def _chain_local_product_by_oracle(ring):
    """True iff, for every primitive idempotent e, the ideals inside eR,
    as member sets, form a chain."""
    ideals, _ = oracles.ideals_by_sum_closure(ring)
    for e in oracles.primitive_idempotents_pairwise(ring):
        factor = {ring.mul_idx(e, x) for x in range(ring.order)}
        if not oracles.is_chain([i for i in ideals if i <= factor]):
            return False
    return True


def _etale_orders():
    """Orders with disc != 0: quadratic orders with two rational roots
    (Z[t]/(t^2 - 1) first), cubics with a rational root, and random
    quadratics and cubics."""
    rng = random.Random(17)
    out = [_quadratic(1, 0), _quadratic(4, 0), _quadratic(0, 4), _quadratic(6, 1)]
    for _ in range(8):  # (t - a)(t^2 + b t + c)
        a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        out.append(_cubic(-a * c, c - a * b, b - a, rng.randint(1, 2)))
    out += _random_orders(23, 6)
    return [order for order in out if discriminant(order)]


def test_p_maximal_matches_chain_quotients_on_etale_orders():
    # by the p/p^2 rule, O is p-maximal iff O/p^2 O is a chain-local product
    checked = 0
    for order in _etale_orders():
        disc = discriminant(order)
        for p in (2, 3) if order.rank == 3 else (2, 3, 5):
            if p > 2 and disc % (p * p):
                continue  # p-maximal, and a large quotient
            square = order_ideal(order, [(p * p,) + (0,) * (order.rank - 1)])
            ring, _ = order_quotient(order, square)
            assert orders._p_maximal(order, p) == _chain_local_product_by_oracle(ring), (order, p)
            checked += 1
    assert checked >= 20


def _orders_with_disc_zero(seed, count):
    """Z[t]/((t - a)^2) and the order (1, k t, k t^2) in Z[t]/((t - a)^2 (t - b))."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        out.append(_quadratic(-a * a, 2 * a))
        out.append(_cubic(-a * a * b, a * a + 2 * a * b, -2 * a - b, rng.randint(1, 2)))
    return out


def test_probe_conductor_matches_full_scan_on_random_orders():
    # the p/p^2 rule: the probe's first failing conductor equals the first n
    # of the scan over every n <= bound
    randoms = _random_orders(29, 45) + _orders_with_disc_zero(31, 8)
    assert sum(not discriminant(order) for order in randoms) >= 16
    for order in randoms:
        bound = 9 if order.rank == 2 else 5
        found = nonmaximality_probe(order, bound)
        assert (found and found.conductor) == _first_failing_conductor(order, bound), order
