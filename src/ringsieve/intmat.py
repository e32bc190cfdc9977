"""Exact integer matrix arithmetic: Hermite and Smith normal forms, lattices.

Rows of a matrix are understood to generate a lattice (row span over Z).
``hnf`` and ``snf`` run on plain Python integers, because entries may grow
without bound during elimination.  ``hnf_mod`` is the one int64 path: it
serves lattices that contain diag(d), whose entries stay below d_k.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient

Matrix = list[list[int]]

HNF_CHUNK = 256  # lattices per hnf_mod call from lattice_pair_sums or the ideals module


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
            pos = bisect_left(pivots, col)
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


def hnf_full_rank(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """HNF basis of a rank-``n`` sublattice of Z^n, as a tuple of rows.

    Raises RankDeficient when the row span has rank below ``n``.
    """
    basis = hnf(rows)
    if len(basis) != n:
        raise RankDeficient(f"rank {len(basis)} < {n}")
    return tuple(tuple(r) for r in basis)


def hnf_mod(bases: np.ndarray, rows: np.ndarray, d: np.ndarray) -> np.ndarray:
    """HNFs of a batch of lattices that all contain diag(d), in int64.

    ``bases`` (B x k x k) holds HNF bases and ``rows`` (B x m x k) the
    vectors to add to each; entry t of the result equals
    ``hnf(list(bases[t]) + list(rows[t]))``.  Each row is inserted column
    by column with an extended Euclid step on the pivot.  Since d_l * e_l
    lies in every lattice (and in the span of the rows at and below l),
    column l is kept reduced mod d_l, so no intermediate reaches 2 * d_k^2
    (Domich-Kannan-Trotter 1987; Cohen, GTM 138, Alg. 2.4.8).
    ``rings.validate_ring`` keeps that below 2^63.
    """
    b, k = bases.shape[:2]
    w = np.empty((b, k + 1, k), dtype=np.int64)  # the basis, then the row being inserted
    w[:, :k] = bases
    for r in range(rows.shape[1]):
        w[:, k] = rows[:, r] % d
        for j in range(k):
            if not w[:, k, j].any():
                continue
            # a zero entry gets the identity, so every lattice takes the same step
            pair = _euclid_matrices(w[:, j, j], w[:, k, j]) @ w[:, [j, k]]
            g = pair[:, 0, j].copy()
            pair %= d
            pair[:, 0, j] = g  # g may equal d_j, which the reduction turns into 0
            w[:, [j, k]] = pair
    h = w[:, :k]
    # entries above each pivot into [0, pivot), left to right as in hnf
    for i in range(1, k):
        q = h[:, :i, i] // h[:, i, i, None]
        h[:, :i, i:] -= q[:, :, None] * h[:, None, i, i:]
        h[:, :i, i + 1:] %= d[i + 1:]
    return h


def _euclid_matrices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unimodular 2 x 2 matrices [[x, y], [s, t]] with a*x + b*y = gcd(a, b)
    and a*s + b*t = 0, per entry of the int64 arrays ``a`` > 0 and ``b`` >= 0
    (the identity where b = 0): elementwise :func:`xgcd`, reducing each
    remainder by the other in turn until one of them is 0."""
    m = np.zeros((2, 3, len(a)), dtype=np.int64)  # rows (r, x, y) with r = a*x + b*y
    m[0, 0], m[1, 0], m[0, 1], m[1, 2] = a, b, 1, 1
    r0, r1 = m[0, 0], m[1, 0]
    while (r0 * r1).any():
        m[0] -= r0 // np.maximum(r1, 1) * (r1 > 0) * m[1]
        m[1] -= r1 // np.maximum(r0, 1) * (r0 > 0) * m[0]
    return np.where(r0 != 0, m[:, 1:], m[::-1, 1:]).transpose(2, 0, 1)


def lattice_keys(lattices: np.ndarray) -> list[bytes]:
    """One hashable key per lattice of an int64 batch (B x k x k): its raw
    bytes, so ``np.frombuffer`` of the joined keys gives the batch back."""
    b, k = lattices.shape[:2]
    flat = np.ascontiguousarray(lattices, dtype=np.int64).reshape(b, k * k)
    return flat.view(np.dtype((np.void, 8 * k * k))).ravel().tolist()


def lattice_pair_sums(lattices: np.ndarray, d: np.ndarray, lo: int = 0):
    """Yield ``(a, b, sums)`` in chunks of at most ``HNF_CHUNK`` pairs.

    ``lattices`` (n x k x k) are HNF bases of lattices containing diag(d);
    ``sums[t]`` is the HNF of lattices[a[t]] + lattices[b[t]].  The pairs
    are all b < a with a >= lo, in order of a, then b; each chunk's indices
    are decoded from its range of triangular numbers t = a(a-1)/2 + b.
    """
    n = len(lattices)
    first, stop = lo * (lo - 1) // 2, n * (n - 1) // 2
    for start in range(first, stop, HNF_CHUNK):
        t = np.arange(start, min(start + HNF_CHUNK, stop), dtype=np.int64)
        a = ((1 + np.sqrt(8 * t + 1)) // 2).astype(np.int64)
        a -= a * (a - 1) // 2 > t  # the float root may be off by one
        a += a * (a + 1) // 2 <= t
        b = t - a * (a - 1) // 2
        yield a, b, hnf_mod(lattices[a], lattices[b], d)


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
