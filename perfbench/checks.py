"""Independent checks behind ``failed``: plain arithmetic, no library algorithms.

Everything here works on coordinate tuples, Python sets, inclusion-exclusion
and exact determinants.  It never calls HNF, SNF, bitmask scans or any other
routine of ``ringsieve``; it only reads the public data a result carries
(invariant factors, member indices, element coordinates, shifts).
"""

from itertools import combinations
from math import gcd, lcm


# -- finite rings --------------------------------------------------------------


def decode(index: int, factors) -> tuple[int, ...]:
    """Carrier index -> coordinates (mixed radix, coordinate 1 fastest)."""
    out = []
    for d in factors:
        out.append(index % d)
        index //= d
    return tuple(out)


def shifted_union(factors, member_sets, shifts) -> int:
    """|union (a_j + I_j)| by adding coordinates mod d_i into one set."""
    seen = set()
    for members, shift in zip(member_sets, shifts):
        for m in members:
            seen.add(tuple((a + s) % d for a, s, d in zip(m, shift, factors)))
    return len(seen)


def member_coords(ideal) -> list[tuple[int, ...]]:
    factors = ideal.ring.invariant_factors
    return [decode(int(i), factors) for i in ideal.members]


def check_union(ideals, shifts, expected: int, what: str) -> list[str]:
    """Re-evaluate a union at given shifts (Elements or coordinate tuples)."""
    factors = ideals[0].ring.invariant_factors
    coords = [s.coords if hasattr(s, "coords") else tuple(s) for s in shifts]
    got = shifted_union(factors, [member_coords(i) for i in ideals], coords)
    if got != expected:
        return [f"{what}: union re-evaluates to {got}, reported {expected}"]
    return []


def check_witness(witness, what: str) -> list[str]:
    """A library Witness must shrink and re-evaluate at both tuples."""
    zero = [(0,) * witness.ideals[0].ring.k] * len(witness.ideals)
    problems = check_union(witness.ideals, witness.shifts, witness.union_shifted, what)
    problems += check_union(witness.ideals, zero, witness.union_baseline, what + " baseline")
    if not witness.union_shifted < witness.union_baseline:
        problems.append(f"{what}: witness does not shrink")
    return problems


def check_report(report, what: str) -> list[str]:
    """A RogersReport must re-evaluate at its first-minimizer shifts."""
    zero = [(0,) * report.ideals[0].ring.k] * len(report.ideals)
    problems = check_union(report.ideals, report.witness_shifts, report.minimum, what)
    problems += check_union(report.ideals, zero, report.baseline, what + " baseline")
    if report.minimum > report.baseline:
        problems.append(f"{what}: minimum {report.minimum} above baseline {report.baseline}")
    if report.satisfied != (report.minimum >= report.baseline):
        problems.append(f"{what}: satisfied flag disagrees with the counts")
    return problems


def ring_mul(factors, constants, x, y) -> tuple[int, ...]:
    """Product from structure constants {(i, j), i <= j: coords of b_i b_j}."""
    k = len(factors)
    out = [0] * k
    for i in range(k):
        if not x[i]:
            continue
        for j in range(k):
            if not y[j]:
                continue
            vec = constants.get((min(i, j), max(i, j)))
            if vec is None:
                continue
            c = x[i] * y[j]
            for l in range(k):
                out[l] += c * vec[l]
    return tuple(v % d for v, d in zip(out, factors))


def ideal_closure(factors, constants, gens) -> set[tuple[int, ...]]:
    """Members of the ideal generated by ``gens``: the additive span of b_i g."""
    k = len(factors)
    basis = [tuple(1 if l == i else 0 for l in range(k)) for i in range(k)]
    steps = {ring_mul(factors, constants, b, tuple(g)) for g in gens for b in basis}
    steps.discard((0,) * k)
    members = {(0,) * k}
    frontier = [(0,) * k]
    while frontier:
        nxt = []
        for m in frontier:
            for s in steps:
                v = tuple((a + b) % d for a, b, d in zip(m, s, factors))
                if v not in members:
                    members.add(v)
                    nxt.append(v)
        frontier = nxt
    return members


# -- progressions over Z -------------------------------------------------------


def progression_union(shifts, moduli, period: int) -> int:
    """Residues mod ``period`` covered by the a_j + q_j Z, by inclusion-exclusion.

    A set of congruences is solvable exactly when it is pairwise compatible,
    and then its solutions form one class mod the lcm.
    """
    total = 0
    r = len(moduli)
    for size in range(1, r + 1):
        for subset in combinations(range(r), size):
            if all(
                (shifts[i] - shifts[j]) % gcd(moduli[i], moduli[j]) == 0
                for i, j in combinations(subset, 2)
            ):
                total += (-1) ** (size + 1) * (period // lcm(*(moduli[i] for i in subset)))
    return total


# -- orders over Z ---------------------------------------------------------------


def full_table(rank: int, table) -> list[list[tuple[int, ...]]]:
    """All basis products b_i b_j from the presentation's (i <= j) entries."""
    full = [[None] * rank for _ in range(rank)]
    for j in range(rank):
        full[0][j] = full[j][0] = tuple(1 if l == j else 0 for l in range(rank))
    for (i, j), vec in table.items():
        full[i][j] = full[j][i] = tuple(vec)
    return full


def order_mul(full, a, b) -> tuple[int, ...]:
    n = len(full)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            c = a[i] * b[j]
            if c:
                for l in range(n):
                    out[l] += c * full[i][j][l]
    return tuple(out)


def det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        if m[c][c] == 0:
            swap = next((r for r in range(c + 1, n) if m[r][c]), None)
            if swap is None:
                return 0
            m[c], m[swap] = m[swap], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for cc in range(c + 1, n):
                m[r][cc] = (m[r][cc] * m[c][c] - m[r][c] * m[c][cc]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def ideal_index(full, gens) -> int:
    """[O : ideal] as the gcd of the maximal minors of the rows g * b_i (0 if degenerate)."""
    n = len(full)
    basis = [tuple(1 if l == t else 0 for l in range(n)) for t in range(n)]
    rows = [order_mul(full, g, b) for g in gens for b in basis]
    g = 0
    for combo in combinations(rows, n):
        g = gcd(g, det(combo))
    return g


def trace_discriminant(full) -> int:
    """det(Tr(b_i b_j)), with Tr read off the multiplication matrices."""
    n = len(full)
    traces = [sum(full[k][i][i] for i in range(n)) for k in range(n)]
    gram = [
        [sum(full[i][j][k] * traces[k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return det(gram)


def squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True
