"""Ideals of a finite ring: generation, full enumeration, the nilradical.

An ideal is identified by its membership mask over the carrier; as an
additive subgroup it is also carried as a full-rank integer lattice in the
ring's coordinate space (always containing the relation rows d_i * e_i).
The lattice view makes sums and spans cheap exact HNF computations; the
mask view makes equality, intersection and containment single big-int ops.
"""

import itertools
from array import array
from dataclasses import dataclass
from functools import cache
from math import prod

import numpy as np

from . import intmat
from .bitset import is_subset, mask_from_indices
from .errors import ValidationError, VerificationFailed
from .rings import Element, FiniteRing

Lattice = tuple[tuple[int, ...], ...]


class Ideal:
    """An ideal of a FiniteRing; immutable, equality by membership mask."""

    __slots__ = ("ring", "lattice", "_mask", "_generators")

    def __init__(self, ring: FiniteRing, lattice: Lattice, _mask: int | None = None):
        self.ring = ring
        self.lattice = lattice
        self._generators: tuple[Element, ...] | None = None
        self._mask = _mask

    @property
    def mask(self) -> int:
        """Membership bitmask over the carrier, enumerated on first use."""
        if self._mask is None:
            self._mask = mask_from_indices(self.ring.order, self.members)
        return self._mask

    @property
    def members(self) -> np.ndarray:
        """Sorted carrier indices of all members, enumerated from the lattice
        on each call: kept on every ideal, they would outweigh the masks."""
        return _lattice_members(self.ring, self.lattice)

    @property
    def size(self) -> int:
        return self.ring.order // intmat.lattice_det(self.lattice)

    @property
    def generators(self) -> tuple[Element, ...]:
        """Greedy canonical generators: repeatedly adjoin the smallest
        carrier element not yet generated."""
        if self._generators is None:
            gens, inside = [], np.zeros(self.ring.order, dtype=bool)
            for g in self.members[1:].tolist():  # 0 comes first
                if not inside[g]:
                    gens.append(self.ring.element_at(g))
                    inside[ideal_generated(self.ring, gens).members] = True
            self._generators = tuple(gens)
        return self._generators

    def contains(self, x: Element) -> bool:
        return bool((self.mask >> x.index) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and other.ring is self.ring and other.mask == self.mask

    def __hash__(self) -> int:
        return hash((id(self.ring), self.mask))

    def __le__(self, other: "Ideal") -> bool:
        return is_subset(self.mask, other.mask)

    def __repr__(self) -> str:
        gens = ";".join(",".join(map(str, g.coords)) for g in self.generators)
        return f"Ideal(size={self.size}, gens=[{gens}])"


def _lattice_members(ring: FiniteRing, lattice: Lattice) -> np.ndarray:
    """Enumerate the carrier indices in a lattice containing the relations.

    With the HNF pivots p_i | d_i, the members are exactly the combinations
    sum c_i * row_i mod d for 0 <= c_i < d_i / p_i, each hit once.
    """
    k = ring.k
    ranges = [ring.invariant_factors[i] // lattice[i][i] for i in range(k)]
    grid = np.indices(ranges, dtype=np.int64).reshape(k, -1).T  # (count, k)
    basis = np.array(lattice, dtype=np.int64)
    coords = (grid @ basis) % ring._df
    idx = coords @ ring._weights
    idx.sort()
    return idx


def _from_lattice(ring: FiniteRing, rows) -> Ideal:
    return Ideal(ring, intmat.hnf_full_rank(list(rows) + ring.diag_rows(), ring.k))


def ideal_generated(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing ``gens``.

    The closure of a set under addition and ambient multiplication equals
    the additive span of the basis multiples b_i * g, which one HNF
    computes; the fixpoint property is asserted by the test suite against
    a naive closure oracle.
    """
    indices = []
    for g in gens:
        el = g if isinstance(g, Element) else ring.element(g)
        if el.ring is not ring:
            raise ValidationError("generator belongs to a different ring")
        indices.append(el.index)
    products = _basis_products(ring, ring._coords[indices])
    return _from_lattice(ring, products.reshape(-1, ring.k).tolist())


def _basis_products(ring: FiniteRing, rows: np.ndarray) -> np.ndarray:
    """(len(rows), k, k): row i of block t holds b_i * x for the element x
    with coordinates rows[t]; the rows of a block span the principal ideal (x)."""
    return np.einsum("nj,ijl->nil", rows, ring._sc) % ring._df


def ideal_from_members(ring: FiniteRing, member_indices) -> Ideal:
    """Ideal with exactly these members; raises if the set is not an ideal."""
    members = np.asarray(member_indices, dtype=np.int64)
    lat = intmat.hnf_full_rank(ring._coords[members].tolist() + ring.diag_rows(), ring.k)
    ideal = Ideal(ring, lat)
    if ideal.mask != mask_from_indices(ring.order, members):
        raise ValidationError("member set is not additively closed")
    # the set spans the lattice, and a set generates the ideal its span does
    if ideal_generated(ring, lat).mask != ideal.mask:
        raise ValidationError("member set is not closed under multiplication")
    return ideal


@dataclass(slots=True)
class RingStructure:
    """R's local factors eR and its nilradical J.  No Element or Ideal here
    would refer back to the ring, so a dropped ring is freed at once."""

    idempotents: tuple[int, ...]  # carrier indices of the e
    factors: np.ndarray  # per e, the lattice of eR
    radical: np.ndarray  # the lattice of J
    maximal: np.ndarray  # per e, the lattice of e * J, the maximal ideal of eR
    squares: np.ndarray  # per e, the lattice of e * J^2, the square of e * J
    units: np.ndarray | None = None  # carrier flags, by localstruct.units_mask
    ideals: tuple | None = None  # (sorted (lattice, mask) pairs, join table), by all_ideals


def ring_structure(ring: FiniteRing) -> RingStructure:
    """The ring's :class:`RingStructure`, built on first use.

    R is the product of the local rings eR, e a primitive idempotent
    (McDonald, *Finite Rings with Identity*, 1974).  The maximal ideal of a
    finite local ring is its nilradical, so that of eR is e * J.  No step
    runs over the carrier but the search for idempotents.  The split raises
    ``VerificationFailed`` unless the e are pairwise orthogonal and sum to
    1, the |eR| multiply to |R|, the e are as many as R's local factors
    (so no eR splits further; :func:`_nilradical` counts them), J is an
    ideal and the |e * J| multiply to |J|.
    """
    if ring._structure is None:
        from . import localstruct  # which imports this module

        prim = [] if ring.is_zero else [e.index for e in localstruct.primitive_idempotents(ring)]
        d, coords, order = ring._df, ring._coords, ring.order
        times_e = _basis_products(ring, coords[prim])  # row i of block t is b_i * e_t
        products = np.einsum("sj,tjl->stl", coords[prim], times_e) % d  # e_s * e_t
        if np.triu(products.any(axis=2), 1).any():
            raise VerificationFailed("idempotents are not pairwise orthogonal")
        if np.any((coords[prim].sum(axis=0) - ring.presentation.unit) % d):
            raise VerificationFailed("idempotents do not sum to 1")
        radical, local_factors = _nilradical(ring)
        # eR, e * J and e * J^2 are spanned by the b_i, the rows J_i of J and
        # the J_i * J_j (i <= j), each times e: one batch, padded with zero rows
        k = ring.k
        by_basis = _basis_products(ring, radical)  # row i of block t is b_i * J_t
        square_rows = (np.einsum("rj,tjl->trl", radical, by_basis) % d)[_pairs(k)]
        gens = [times_e, np.einsum("ej,rjl->erl", coords[prim], by_basis) % d,
                np.einsum("qj,ejl->eql", square_rows, times_e) % d]
        batch = np.zeros((3, len(prim), len(square_rows), k), dtype=np.int64)
        for block, rows in zip(batch, gens):
            block[:, :rows.shape[1]] = rows
        factors, maximal, squares = _span(ring, batch.reshape(-1, len(square_rows), k)).reshape(
            3, len(prim), k, k)
        if prod((order // _lattice_index(factors)).tolist()) != order:
            raise VerificationFailed("factor orders do not multiply to |R|")
        if 0 in prim or len(prim) != local_factors:
            raise VerificationFailed("decomposition produced a non-local factor")
        basis = radical.tolist()
        if not all(intmat.lattice_contains(basis, row) for row in by_basis.reshape(-1, k).tolist()):
            raise VerificationFailed("the radical of R is not an ideal")
        if prod((order // _lattice_index(maximal)).tolist()) != order // intmat.lattice_det(radical):
            raise VerificationFailed("the radical does not split over the factors")
        ring._structure = RingStructure(tuple(prim), factors, radical, maximal, squares)
    return ring._structure


@cache
def _pairs(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The index pairs i <= j below k, as two index tuples."""
    return tuple(zip(*[(i, j) for i in range(k) for j in range(i, k)]))


def _nilradical(ring: FiniteRing) -> tuple[np.ndarray, int]:
    """The HNF lattice of J, the nilpotent elements of R, and the number of
    R's local factors.

    x lies in J iff its image in R/pR is nilpotent for every prime p | d_k.
    R/pR is the F_p-algebra on the coordinates l with p | d_l (the others
    vanish mod p), and the preimage L_p of its radical holds pZ^k; so with
    r the product of the primes, J = sum over p of (r/p) L_p.  R/pR has one
    local factor per local factor of R of residue characteristic p.
    """
    d, k = ring._df, ring.k
    primes = _prime_divisors(int(d[-1]))
    r = prod(primes)
    rows, local_factors = [r * np.eye(k, dtype=np.int64)], 0
    for p in primes:
        s = int(np.count_nonzero(d % p))  # the coordinates p does not divide come first
        radical, count = _radical_mod_p(ring._sc[s:, s:, s:] % p, p)
        lifted = np.zeros((s + len(radical), k), dtype=np.int64)
        lifted[:s, :s] = np.eye(s, dtype=np.int64)
        lifted[s:, s:] = np.reshape(radical, (-1, k - s))
        rows.append(r // p * lifted)
        local_factors += count
    return _span(ring, np.concatenate(rows)[None])[0], local_factors


def _prime_divisors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] * (n > 1)


def _radical_mod_p(sc, p: int) -> tuple[list[list[int]], int]:
    """Rows spanning, mod p, the nilradical of the commutative F_p-algebra
    with structure constants ``sc`` (m x m x m, entries in [0, p)), and the
    number of its local factors.

    x -> x^p is F_p-linear, and the rows of its matrix F are the b_i^p, by
    square and multiply.  The radical is the kernel of x -> x^q = x F^j,
    q = p^j >= m (Cohen, GTM 138, 6.1).  In a local F_p-algebra the roots
    of X^p - X are F_p, so the kernel of F - I has one dimension per local
    factor.  Entries stay below m p^2 in int64, or are Python integers past
    that.
    """
    m = len(sc)
    dtype = np.int64 if m * p * p < 2**63 else object
    flat = np.array(sc, dtype=dtype).reshape(m, m * m)

    def mul(x, y):  # row t of the result is x[t] * y[t]
        return np.einsum("tj,tjl->tl", y, (x @ flat).reshape(m, m, m) % p) % p

    frob, square, e = None, np.eye(m, dtype=dtype), p
    while True:
        if e & 1:
            frob = square if frob is None else mul(frob, square)
        e >>= 1
        if not e:
            break
        square = mul(square, square)
    power, q = frob, p
    while q < m:
        power, q = power @ frob % p, q * p
    fixed = _left_kernel_mod_p((frob - np.eye(m, dtype=dtype)).tolist(), p)
    return _left_kernel_mod_p(power.tolist(), p), len(fixed)


def _left_kernel_mod_p(a: list[list[int]], p: int) -> list[list[int]]:
    """Rows spanning {u : u a = 0 mod p}: row-reduce [a | I] mod p, and the
    rows whose a-part vanishes carry the kernel in their I-part."""
    m = len(a)
    rows = [[x % p for x in row] + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    rank = 0
    for c in range(m):
        pivot = next((r for r in range(rank, m) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], -1, p)
        top = rows[rank] = [x * inverse % p for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[c]:
                rows[r] = [(x - row[c] * y) % p for x, y in zip(row, top)]
        rank += 1
    return [row[m:] for row in rows[rank:]]


def _span(ring: FiniteRing, rows: np.ndarray) -> np.ndarray:
    """HNF bases of the lattices spanned by each block of ``rows`` (B x m x k) and diag(d)."""
    k, d = ring.k, ring._df
    return intmat.hnf_mod(np.broadcast_to(np.diag(d), (len(rows), k, k)), rows, d)


def _lattice_index(lattices: np.ndarray) -> np.ndarray:
    """[Z^k : L] = |R| / |I| for each HNF basis L of an ideal I in the batch."""
    return np.prod(np.diagonal(lattices, axis1=1, axis2=2), axis=1)


def _from_keys(keys, k: int) -> np.ndarray:
    """The lattice batch whose ``intmat.lattice_keys`` are ``keys``."""
    return np.frombuffer(b"".join(keys), dtype=np.int64).reshape(-1, k, k)


def all_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every ideal exactly once, sorted by (cardinality, member list)."""
    return [Ideal(ring, lattice, _mask=mask) for lattice, mask in _ideals_and_joins(ring)[0]]


def join_table(ring: FiniteRing) -> np.ndarray:
    """Read-only n x n table: ``join[a, b]`` is the position in
    ``all_ideals(ring)`` of the sum of ideals a and b."""
    return _ideals_and_joins(ring)[1]


def _ideals_and_joins(ring: FiniteRing) -> tuple[tuple[tuple[Lattice, int], ...], np.ndarray]:
    """The sorted ideals, as (lattice, mask) pairs, and their join table,
    built once per ring from the factors' ideals.

    The ideals of R are the sums of one ideal of each factor, summed one
    factor at a time: (a_1, ..., a_m) sits at mixed-radix position
    a_1 n_2 ... n_m + ... + a_m, as does the join of two, factor by factor.
    """
    structure = ring_structure(ring)
    if structure.ideals is None:
        d = ring._df
        factors = [_factor_ideals(lattices, d) for lattices in _principal_lattices(ring)]
        n = prod(len(lattices) for lattices, _ in factors)
        dtype = np.min_scalar_type(n - 1)
        sums, joins = np.diag(d)[None], np.zeros((1, 1), dtype=dtype)  # the zero ring's one ideal
        for lattices, join in factors:
            f = len(lattices)
            if len(sums) > 1:  # else the sums are diag(d) + I = I
                t = np.arange(len(sums) * f)  # sums[a] + lattices[b] goes to a * f + b
                chunks = np.split(t, t[intmat.HNF_CHUNK::intmat.HNF_CHUNK])
                lattices = np.concatenate(
                    [intmat.hnf_mod(sums[c // f], lattices[c % f], d) for c in chunks])
            sums = lattices
            joins = (joins[:, None, :, None] * f + join.astype(dtype)[None, :, None, :]).reshape(
                len(sums), len(sums))
        ideals, order_keys = [], []
        for rows in sums.tolist():
            lattice = tuple(map(tuple, rows))
            members = _lattice_members(ring, lattice)
            # big-endian bytes compare as the sorted member lists do
            order_keys.append((len(members), members.astype(">u8").tobytes()))
            ideals.append((lattice, mask_from_indices(ring.order, members)))
        order = np.array(sorted(range(n), key=order_keys.__getitem__))
        position = np.empty(n, dtype=dtype)  # mixed-radix position -> sorted position
        position[order] = np.arange(n)
        join = position[joins[np.ix_(order, order)]]
        join.flags.writeable = False
        structure.ideals = (tuple(ideals[p] for p in order.tolist()), join)
    return structure.ideals


def _principal_lattices(ring: FiniteRing) -> list[np.ndarray]:
    """Per factor eR: eR, then its proper nonzero principal lattices.  (y)
    is the same ideal in R and in eR, and a unit y of eR generates eR, so
    one ``hnf_mod`` batch per ``HNF_CHUNK`` members of all the maximal
    ideals e * J gives them."""
    structure = ring_structure(ring)
    members = [_lattice_members(ring, m) for m in structure.maximal]
    sizes = [len(m) for m in members]
    flat = np.concatenate([np.zeros(0, dtype=np.int64)] + members)
    owner = np.repeat(np.arange(len(members)), sizes)
    found = [{} for _ in members]  # per factor, lattice key -> None
    for lo in range(0, len(flat), intmat.HNF_CHUNK):
        lats = _span(ring, _basis_products(ring, ring._coords[flat[lo:lo + intmat.HNF_CHUNK]]))
        for f, key in zip(owner[lo:lo + len(lats)].tolist(), intmat.lattice_keys(lats)):
            found[f][key] = None
    per_factor = []
    for whole, keys in zip(structure.factors, found):
        lattices = _from_keys(keys, ring.k)
        proper = lattices[_lattice_index(lattices) != ring.order]  # all but 0
        per_factor.append(np.concatenate([whole[None], proper]))
    return per_factor


def _factor_ideals(principal: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ideals of a factor eR (0, eR, then the rest) and their join
    table, from ``principal``: eR, then its proper nonzero principal
    lattices.  The rest close under pairwise sum in rounds, each new
    lattice paired with all earlier ones; each sum's key is looked up (or
    entered) with a fresh id, and the sums, in ``lattice_pair_sums`` order,
    fill the lower triangle.
    """
    ids = itertools.count()
    seen = dict(zip(intmat.lattice_keys(np.concatenate([np.diag(d)[None], principal])), ids))
    sum_ids = array("q")  # id of each pair sum b < a past 0 and eR, in lattice_pair_sums order
    lattices, paired = _from_keys(seen, len(d)), 2  # the first ``paired`` have been summed
    while paired < len(lattices):
        for _, _, sums in intmat.lattice_pair_sums(lattices[2:], d, paired - 2):
            sum_ids.extend(map(seen.setdefault, intmat.lattice_keys(sums), ids))
        lattices, paired = _from_keys(seen, len(d)), len(lattices)
    n = len(lattices)
    number = np.empty(next(ids), dtype=np.int64)  # id -> lattice number
    number[np.fromiter(seen.values(), np.int64, n)] = np.arange(n)
    join = np.ones((n, n), dtype=np.int64)  # eR + I = eR
    join[0] = join[:, 0] = np.arange(n)  # 0 + I = I
    lower = np.tri(n - 2, k=-1, dtype=bool)  # row-major, its cells are the pairs b < a in order
    join[2:, 2:][lower] = join[2:, 2:].T[lower] = number[np.frombuffer(sum_ids, dtype=np.int64)]
    join.flat[::n + 1] = np.arange(n)
    return lattices, join


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """Ideal generated by pairwise products of members (via lattice rows)."""
    if i.ring is not j.ring:
        raise ValidationError("ideals belong to different rings")
    ring = i.ring
    d = ring._df
    mats = _basis_products(ring, np.array(i.lattice, dtype=np.int64))  # mats[a][l] = b_l * a
    rows = np.einsum("bl,alm->abm", np.array(j.lattice, dtype=np.int64) % d, mats) % d
    return _from_lattice(ring, rows.reshape(-1, ring.k).tolist())


def annihilator(i: Ideal) -> Ideal:
    """{x : x * I = 0}, found by scanning the carrier against the lattice rows."""
    ring = i.ring
    mats = _basis_products(ring, np.array(i.lattice, dtype=np.int64))
    prods = np.einsum("nj,gjl->ngl", ring._coords, mats) % ring._df  # prods[x, g] = x * g
    members = np.nonzero(~prods.any(axis=(1, 2)))[0]
    lat = intmat.hnf_full_rank(ring._coords[members].tolist() + ring.diag_rows(), ring.k)
    return Ideal(ring, lat, _mask=mask_from_indices(ring.order, members))
