"""Exact integer matrix arithmetic: Hermite and Smith normal forms, lattices.

Everything here runs on plain Python integers; entries may grow without
bound during elimination, so fixed-width arithmetic is never used.  Rows
of a matrix are understood to generate a lattice (row span over Z).
"""

from dataclasses import dataclass

from .errors import RankDeficient

Matrix = list[list[int]]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def hnf(rows) -> Matrix:
    """Canonical row Hermite normal form of the lattice spanned by ``rows``.

    Zero rows are dropped; pivots are positive; entries above each pivot
    are reduced into [0, pivot).  The result depends only on the row span,
    which is what makes it usable as an equality test for lattices.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return []
    n = len(rows[0])
    basis: Matrix = []  # rows with strictly increasing pivot columns
    pivots: list[int] = []
    for vec in rows:
        vec = list(vec)
        col = 0
        while True:
            while col < n and vec[col] == 0:
                col += 1
            if col == n:
                break
            pos = _bisect(pivots, col)
            if pos == len(pivots) or pivots[pos] != col:
                basis.insert(pos, vec)
                pivots.insert(pos, col)
                break
            row = basis[pos]
            a, b = row[col], vec[col]
            if b % a == 0:
                q = b // a
                for j in range(col, n):
                    vec[j] -= q * row[j]
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                for j in range(col, n):
                    rj, vj = row[j], vec[j]
                    row[j] = x * rj + y * vj
                    vec[j] = ag * vj - bg * rj
    # normalize: positive pivots, reduce entries above each pivot
    for i, col in enumerate(pivots):
        if basis[i][col] < 0:
            basis[i] = [-v for v in basis[i]]
    # left-to-right so a finished pivot column is never disturbed again
    for i in range(len(basis)):
        p = basis[i][pivots[i]]
        for k in range(i):
            q = basis[k][pivots[i]] // p
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def _bisect(seq: list[int], x: int) -> int:
    lo, hi = 0, len(seq)
    while lo < hi:
        mid = (lo + hi) // 2
        if seq[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


def hnf_full_rank(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """HNF basis of a rank-``n`` sublattice of Z^n, as a tuple of rows.

    Raises RankDeficient when the row span has rank below ``n``.
    """
    basis = hnf(rows)
    if len(basis) != n:
        raise RankDeficient(f"rank {len(basis)} < {n}")
    return tuple(tuple(r) for r in basis)


def lattice_det(basis) -> int:
    """Index of a full-rank HNF lattice in Z^n (product of the diagonal)."""
    out = 1
    for i, row in enumerate(basis):
        out *= row[i]
    return out


def lattice_contains(basis, vec) -> bool:
    """Membership of ``vec`` in a full-rank HNF lattice (triangular solve)."""
    v = list(vec)
    n = len(v)
    for i in range(n):
        if v[i] == 0:
            continue
        p = basis[i][i]
        if v[i] % p != 0:
            return False
        q = v[i] // p
        for j in range(i, n):
            v[j] -= q * basis[i][j]
    return True


def lattice_reduce(basis, vec) -> tuple[int, ...]:
    """Canonical representative of ``vec`` modulo a full-rank HNF lattice."""
    v = [int(x) for x in vec]
    n = len(v)
    for i in range(n):
        q = v[i] // basis[i][i]
        if q:
            for j in range(i, n):
                v[j] -= q * basis[i][j]
    return tuple(v)


def lattice_sum(b1, b2, n: int) -> tuple[tuple[int, ...], ...]:
    """HNF basis of the lattice generated by both bases."""
    return hnf_full_rank(list(b1) + list(b2), n)


def lattice_intersect(b1, b2, n: int) -> tuple[tuple[int, ...], ...]:
    """HNF basis of the intersection of two full-rank lattices.

    Kernel method: x lies in both spans iff x = u*B1 = v*B2, i.e. (u, v)
    is in the integer kernel of [[B1], [-B2]]; the u-parts then span the
    intersection.
    """
    m1, m2 = len(b1), len(b2)
    stacked = [list(r) for r in b1] + [[-e for e in r] for r in b2]
    ker = kernel(stacked)
    rows = []
    for coeffs in ker:
        rows.append([sum(coeffs[i] * b1[i][j] for i in range(m1)) for j in range(n)])
    return hnf_full_rank(rows, n)


def kernel(rows: Matrix) -> Matrix:
    """Basis of the left integer kernel {u : u * rows = 0}, via tracked HNF."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    # Work on [A | I]: row-reduce A, the identity block records the transform.
    work = [list(rows[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    # column-by-column elimination over the first n columns
    pivot_row = 0
    for col in range(n):
        # find a row at or below pivot_row with nonzero entry in col
        sel = None
        for r in range(pivot_row, m):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        for r in range(pivot_row + 1, m):
            while work[r][col] != 0:
                a, b = work[pivot_row][col], work[r][col]
                if abs(a) > abs(b):
                    work[pivot_row], work[r] = work[r], work[pivot_row]
                    continue
                q = work[r][col] // work[pivot_row][col]
                work[r] = [x - q * y for x, y in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == m:
            break
    ker = [w[n:] for w in work if all(v == 0 for v in w[:n])]
    return hnf(ker)


@dataclass(frozen=True)
class SnfResult:
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ...;
    ``vinv`` is the inverse of V."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    vinv: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        m = len(self.d)
        n = len(self.d[0]) if m else 0
        return tuple(self.d[i][i] for i in range(min(m, n)))


def snf(mat) -> SnfResult:
    """Smith normal form with both transforms and the inverse of V.

    Classic pivoting algorithm: move a minimal nonzero entry to the corner,
    clear its row and column, fix divisibility defects, recurse on the
    remaining block.  Every column operation on V is mirrored by the
    inverse row operation on V^-1.  All arithmetic is arbitrary precision.
    """
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [row[:] for row in v]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def addmul_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        vinv[src] = [x - q * y for x, y in zip(vinv[src], vinv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # locate a minimal-magnitude nonzero entry in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # clear column and row; restarts when a remainder becomes the new pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                addmul_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                addmul_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    dirty = True
        # divisibility fix: a[t][t] must divide every later entry
        fixed = False
        for i in range(t + 1, m):
            if fixed:
                break
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    addmul_row(t, i, 1)
                    fixed = True
                    break
        if fixed:
            continue  # re-run elimination at the same t
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return SnfResult(
        u=tuple(tuple(r) for r in u),
        d=tuple(tuple(r) for r in a),
        v=tuple(tuple(r) for r in v),
        vinv=tuple(tuple(r) for r in vinv),
    )
