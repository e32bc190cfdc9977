"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: set arithmetic, full enumerations,
no shared code with the library's algorithms beyond element arithmetic.
Keep it that way -- these are the other side of every dual-route check.
"""

import itertools
from fractions import Fraction
from math import lcm

import numpy as np


def ring_axioms_exhaustive(ring) -> bool:
    """Associativity, commutativity, distributivity and unit on the whole carrier."""
    n = ring.order
    one = ring.unit.index
    mul = ring.mul_idx
    add = ring.add_idx
    for a in range(n):
        if mul(one, a) != a:
            return False
        for b in range(n):
            if mul(a, b) != mul(b, a):
                return False
            for c in range(n):
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    return False
                if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                    return False
    return True


def ideals_by_subset_scan(ring) -> list[int]:
    """All ideal masks by checking every carrier subset (tiny rings only)."""
    n = ring.order
    out = []
    for bits in range(1, 2 ** n, 2):  # must contain 0
        members = [i for i in range(n) if (bits >> i) & 1]
        if any(not (bits >> ring.add_idx(a, b)) & 1 for a in members for b in members):
            continue
        if any(
            not (bits >> ring.mul_idx(r, a)) & 1 for a in members for r in range(n)
        ):
            continue
        out.append(bits)
    return sorted(out)


def ideal_closure_fixpoint(ring, gen_indices) -> set[int]:
    """Smallest ideal containing the generators, by naive closure iteration."""
    current = {0} | set(gen_indices)
    while True:
        nxt = set(current)
        for a in current:
            for b in current:
                nxt.add(ring.add_idx(a, b))
        for r in range(ring.order):
            for a in current:
                nxt.add(ring.mul_idx(r, a))
        if nxt == current:
            return current
        current = nxt


def min_union_all_shifts(ring, ideals) -> int:
    """Minimum shifted-union size over ALL carrier shift tuples (nothing pinned)."""
    member_sets = [set(int(m) for m in ideal.members) for ideal in ideals]
    best = None
    for shifts in itertools.product(range(ring.order), repeat=len(ideals)):
        union = set()
        for s, members in zip(shifts, member_sets):
            union.update(ring.add_idx(s, m) for m in members)
        if best is None or len(union) < best:
            best = len(union)
    return best


def first_minimizer_in_rank_order(base, choices) -> tuple[int, tuple[int, ...]]:
    """(minimum, indices) of |base | choices[0][i_0] | choices[1][i_1] | ...|.

    Visits index tuples one by one in rank order, position 0 varying
    fastest, and keeps the first tuple that reaches the minimum.
    """
    best = None
    for reversed_digits in itertools.product(*[range(len(c)) for c in reversed(choices)]):
        digits = reversed_digits[::-1]
        union = set(base)
        for sets, d in zip(choices, digits):
            union |= sets[d]
        if best is None or len(union) < best[0]:
            best = (len(union), digits)
    return best


def cosets_in_carrier_order(ring, ideal) -> list[tuple[int, set[int]]]:
    """(least element, member set) of every coset of ``ideal``, by least element."""
    members = [int(m) for m in ideal.members]
    covered = set()
    out = []
    for x in range(ring.order):
        if x not in covered:
            coset = {ring.add_idx(x, m) for m in members}
            covered |= coset
            out.append((x, coset))
    return out


def pinned_scan(ring, ideals) -> tuple[int, tuple[int, ...]]:
    """Minimum and first-minimizing shift indices with a_1 = 0 and a_j running
    over the least element of each coset of I_j."""
    cosets = [cosets_in_carrier_order(ring, ideal) for ideal in ideals[1:]]
    base = {int(m) for m in ideals[0].members}
    value, digits = first_minimizer_in_rank_order(base, [[c for _, c in cs] for cs in cosets])
    return value, (0,) + tuple(cs[d][0] for cs, d in zip(cosets, digits))


def union_at_shifts(ring, ideals, shift_indices) -> int:
    union = set()
    for s, ideal in zip(shift_indices, ideals):
        union.update(ring.add_idx(s, int(m)) for m in ideal.members)
    return len(union)


def units_by_product_scan(ring) -> list[bool]:
    """x is a unit iff x * y = 1 for some y: one row of products per x."""
    coords, weights = _carrier(ring)
    one = ring.unit.index
    return [bool(np.any(ring.mul_coords(x, coords) @ weights == one)) for x in coords]


def _carrier(ring) -> tuple[np.ndarray, np.ndarray]:
    """Every carrier element's coordinates, in carrier order, and the
    weights that turn coordinates back into carrier indices."""
    coords = np.array([ring.coords_of(i) for i in range(ring.order)], dtype=np.int64)
    return coords, np.cumprod((1,) + ring.invariant_factors[:-1])


def ideals_by_sum_closure(ring) -> tuple[list[frozenset], dict]:
    """Every ideal as a member set, and the member set of every pairwise
    sum, keyed by the pair: the principal ideals xR = {x * r : r in R},
    closed under sums of subgroups, each a union of cosets of one side."""
    coords, weights = _carrier(ring)
    d = np.array(ring.invariant_factors, dtype=np.int64)

    def plus(a, b):
        if len(a) < len(b):
            a, b = b, a
        inside = np.zeros(ring.order, dtype=bool)
        inside[list(a)] = True
        base = coords[sorted(a)]
        for y in b:
            if not inside[y]:
                inside[(base + coords[y]) % d @ weights] = True
        return frozenset(np.flatnonzero(inside).tolist())

    principal = {}  # packed membership flags -> member set, per distinct x * R
    for x in coords:
        inside = np.zeros(ring.order, dtype=bool)
        inside[ring.mul_coords(x, coords) @ weights] = True
        key = np.packbits(inside).tobytes()
        if key not in principal:
            principal[key] = frozenset(np.flatnonzero(inside).tolist())
    found = list(principal.values())
    seen = set(found)
    sums = {}
    for i, a in enumerate(found):  # ``found`` grows while it is walked
        for b in found[:i + 1]:
            sums[a, b] = sums[b, a] = total = plus(a, b)
            if total not in seen:
                seen.add(total)
                found.append(total)
    return found, sums


def unit_preserving_isomorphism_exists(a, b) -> bool:
    """Search all bijections between two small rings for a ring isomorphism."""
    if a.order != b.order:
        return False
    n = a.order
    one_a = a.unit.index
    one_b = b.unit.index
    others_a = [i for i in range(n) if i != one_a]
    others_b = [i for i in range(n) if i != one_b]
    for perm in itertools.permutations(others_b):
        phi = {one_a: one_b}
        phi.update(zip(others_a, perm))
        if all(
            phi[a.add_idx(x, y)] == b.add_idx(phi[x], phi[y])
            and phi[a.mul_idx(x, y)] == b.mul_idx(phi[x], phi[y])
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def cyclic_isomorphism_candidates(target) -> list[int]:
    """Images u of 1 for which n -> n*u is a ring isomorphism from Z/|target|."""
    n = target.order
    hits = []
    for u in range(n):
        images = []
        acc = 0
        for _ in range(n):
            images.append(acc)
            acc = target.add_idx(acc, u)
        if len(set(images)) != n:
            continue
        ok = all(
            target.mul_idx(images[x], images[y]) == images[(x * y) % n]
            for x in range(n)
            for y in range(n)
        )
        if ok and images[1] == target.unit.index:
            hits.append(u)
    return hits


def min_density_all_shifts(moduli) -> Fraction:
    """Minimum union density over every shift tuple (nothing pinned)."""
    period = lcm(*moduli)
    best = None
    for shifts in itertools.product(*[range(q) for q in moduli]):
        covered = set()
        for a, q in zip(shifts, moduli):
            covered.update(range(a, period, q))
        if best is None or len(covered) < best:
            best = len(covered)
    return Fraction(best, period)


def pinned_residue_scan(moduli) -> tuple[int, tuple[int, ...]]:
    """Fewest covered residues mod lcm and the first-minimizing shifts, with
    a_1 = 0 and a_j running over 0..q_j - 1."""
    period = lcm(*moduli)
    base = set(range(0, period, moduli[0]))
    choices = [[set(range(a, period, q)) for a in range(q)] for q in moduli[1:]]
    value, digits = first_minimizer_in_rank_order(base, choices)
    return value, (0,) + digits


def density_by_counting(progressions, span_periods=3) -> Fraction:
    """Density via literal membership counting over several periods."""
    period = lcm(*(q for _, q in progressions))
    total = period * span_periods
    count = sum(
        1
        for x in range(total)
        if any((x - a) % q == 0 for a, q in progressions)
    )
    return Fraction(count, total)


def mat_mul(a, b) -> list[list[int]]:
    """Exact integer matrix product."""
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def det_bareiss(mat) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    a = [list(r) for r in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def in_lattice(basis, vec) -> bool:
    """Membership of ``vec`` in the row span of an upper-triangular basis
    with nonzero diagonal, by back-substitution in plain integers."""
    rest = list(vec)
    for i, row in enumerate(basis):
        q, r = divmod(rest[i], row[i])
        if r:
            return False
        rest = [x - q * y for x, y in zip(rest, row)]
    return not any(rest)


def image_by_lifts(ring, lift, basis) -> int:
    """Mask of {x : lift(x) in L}, L the row span of ``basis``; ``lift``
    maps a carrier index to an integer vector."""
    return sum(1 << x for x in range(ring.order) if in_lattice(basis, lift(x)))


def hom_carrier_map(hom) -> list[int]:
    """Target index of hom(x) for every source carrier index x."""
    return [hom(hom.source.element_at(x)).index for x in range(hom.source.order)]


def hom_is_bijective(hom) -> bool:
    return (hom.source.order == hom.target.order
            and len(set(hom_carrier_map(hom))) == hom.source.order)


def hom_preserves_operations(hom) -> bool:
    """+, * and 1 preserved on every pair of carrier elements."""
    s, t = hom.source, hom.target
    imap = hom_carrier_map(hom)
    for i in range(s.order):
        for j in range(s.order):
            if imap[s.add_idx(i, j)] != t.add_idx(imap[i], imap[j]):
                return False
            if imap[s.mul_idx(i, j)] != t.mul_idx(imap[i], imap[j]):
                return False
    return hom(s.unit) == t.unit


def is_chain(member_sets) -> bool:
    """True iff the sets, sorted by size, form a containment chain."""
    ordered = sorted(map(set, member_sets), key=len)
    return all(a <= b for a, b in zip(ordered, ordered[1:]))


def subgroup_sum(ring, x, y) -> frozenset:
    """x + y for additive subgroups given as sets of carrier indices."""
    # x is a subgroup, so x + y is the union of the cosets x + b, b in y
    out = set(x)
    for b in y:
        if b not in out:
            out |= {ring.add_idx(a, b) for a in x}
    return frozenset(out)


def mask_members(mask: int) -> frozenset:
    """The carrier indices whose bits are set in ``mask``."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def ideal_sum_mask(ring, a: int, b: int) -> int:
    """Mask of I + J, from the masks of I and J, as the subgroup sum of their members."""
    return sum(1 << x for x in subgroup_sum(ring, mask_members(a), mask_members(b)))


def minimal_ideals(ideals) -> list:
    """The nonzero ideals (mask other than {0}) with no nonzero ideal strictly inside."""
    nonzero = [i for i in ideals if i.mask != 1]
    return [i for i in nonzero
            if not any(j.mask != i.mask and j.mask & ~i.mask == 0 for j in nonzero)]


def triple_is_satisfied(ring, s1, s2, s3) -> bool:
    """No shifts shrink the union of three ideals, given as member sets, iff
    (I_1 + I_3) & (I_2 + I_3) lies inside (I_1 & I_2) + I_3."""
    s1, s2, s3 = map(frozenset, (s1, s2, s3))
    both = subgroup_sum(ring, s1, s3) & subgroup_sum(ring, s2, s3)
    return both <= subgroup_sum(ring, s1 & s2, s3)


def first_failing_triple(ring, ideals) -> tuple[int, int, int] | None:
    """First (a, b, c) with a <= b <= c, in lexicographic order, whose ideals
    break (I_a + I_c) & (I_b + I_c) <= (I_a & I_b) + I_c, or None.

    Member sets are read off the masks; sums are sets of pairwise sums,
    intersections are set intersections."""
    sets = [frozenset(i for i in range(ring.order) if (ideal.mask >> i) & 1) for ideal in ideals]
    sums = {}

    def plus(x, y):
        if (x, y) not in sums:
            sums[x, y] = subgroup_sum(ring, x, y)
        return sums[x, y]

    n = len(sets)
    for a in range(n):
        for b in range(a, n):
            meet = sets[a] & sets[b]
            for c in range(b, n):
                if (plus(sets[a], sets[c]) & plus(sets[b], sets[c])) - plus(meet, sets[c]):
                    return a, b, c
    return None


def product_by_python_ints(ring, i, j) -> int:
    """Carrier index of x_i * x_j, from the presentation's structure
    constants in Python integers."""
    pres = ring.presentation
    table = {}
    for (p, q), vec in pres.structure_constants.items():
        table[p, q] = table[q, p] = vec
    x, y = ring.coords_of(i), ring.coords_of(j)
    out = [0] * ring.k
    for (p, q), vec in table.items():
        for l, c in enumerate(vec):
            out[l] += x[p] * y[q] * c
    return ring.index_of(out)


def nilpotents_by_powers(ring) -> set[int]:
    """Carrier indices x with x^(2^t) = 0, where 2^t exceeds log2 |R| + 1
    (x R > x^2 R > ... halves at each step, so a nilpotent's index is at
    most that); each square in Python integers from the structure constants."""
    pres, k, d = ring.presentation, ring.k, ring.invariant_factors
    table = [(p, q, vec) for (p, q), vec in pres.structure_constants.items()]

    def square(x):
        out = [0] * k
        for p, q, vec in table:
            c = x[p] * x[q] * (1 if p == q else 2)
            for l, v in enumerate(vec):
                out[l] += c * v
        return tuple(v % m for v, m in zip(out, d))

    steps = (ring.order.bit_length() + 1).bit_length()
    found = set()
    for i in range(ring.order):
        x = ring.coords_of(i)
        for _ in range(steps):
            x = square(x)
        if not any(x):
            found.add(i)
    return found


def primitive_idempotents_pairwise(ring, candidates=None) -> list[int]:
    """Carrier indices, in carrier order, of the nonzero idempotents e with
    no nonzero idempotent f != e such that e * f = f; every product in
    Python integers.  ``candidates`` (default: the whole carrier) are the
    indices searched for idempotents."""
    pool = range(ring.order) if candidates is None else sorted(candidates)
    idems = [x for x in pool if x != 0 and product_by_python_ints(ring, x, x) == x]
    return [e for e in idems
            if not any(f != e and product_by_python_ints(ring, e, f) == f for f in idems)]


def antichains_met_by_multisets(member_sets, smallest, largest) -> list[tuple[int, ...]]:
    """Sets of at least ``smallest`` ideals none of which lies in another, in
    the order a walk over the multisets of ``smallest`` to ``largest`` ideals
    first meets them as the multiset's maximal members; ``member_sets[a]``
    is the set of members of ideal a."""
    seen = {}
    for size in range(smallest, largest + 1):
        for combo in itertools.combinations_with_replacement(range(len(member_sets)), size):
            top = tuple(sorted({a for a in combo
                                if not any(member_sets[a] < member_sets[b] for b in combo)}))
            if len(top) >= smallest:
                seen.setdefault(top, None)
    return list(seen)
