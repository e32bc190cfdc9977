"""Ideals of a finite ring: generation, full enumeration, lattice operations.

An ideal is identified by its membership mask over the carrier; as an
additive subgroup it is also carried as a full-rank integer lattice in the
ring's coordinate space (always containing the relation rows d_i * e_i).
The lattice view makes sums and spans cheap exact HNF computations; the
mask view makes equality, intersection and containment single big-int ops.
"""

import itertools
from array import array

import numpy as np

from . import intmat
from .bitset import indices_from_mask, is_subset, mask_from_indices
from .errors import ValidationError
from .rings import Element, FiniteRing

Lattice = tuple[tuple[int, ...], ...]


class Ideal:
    """An ideal of a FiniteRing; immutable, equality by membership mask."""

    __slots__ = ("ring", "lattice", "mask", "_generators")

    def __init__(self, ring: FiniteRing, lattice: Lattice, _mask: int | None = None):
        self.ring = ring
        self.lattice = lattice
        self._generators: tuple[Element, ...] | None = None
        self.mask = _mask if _mask is not None else mask_from_indices(ring.order, self.members)

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
            ring = self.ring
            gens: list[int] = []
            rows = ring.diag_rows()
            span_mask = mask_from_indices(ring.order, [0])
            members = self.members
            while True:
                missing = [int(i) for i in members if not (span_mask >> int(i)) & 1]
                if not missing:
                    break
                g = missing[0]
                gens.append(g)
                rows = rows + ring.basis_product_rows(g)
                lat = intmat.hnf_full_rank(rows, ring.k)
                span_mask = mask_from_indices(ring.order, _lattice_members(ring, lat))
            self._generators = tuple(ring.element_at(g) for g in gens)
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


def zero_ideal(ring: FiniteRing) -> Ideal:
    return _from_lattice(ring, [])


def unit_ideal(ring: FiniteRing) -> Ideal:
    return _from_lattice(ring, [[1 if j == i else 0 for j in range(ring.k)] for i in range(ring.k)])


def ideal_generated(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing ``gens``.

    The closure of a set under addition and ambient multiplication equals
    the additive span of the basis multiples b_i * g, which one HNF
    computes; the fixpoint property is asserted by the test suite against
    a naive closure oracle.
    """
    rows: list[list[int]] = []
    for g in gens:
        el = g if isinstance(g, Element) else ring.element(g)
        if el.ring is not ring:
            raise ValidationError("generator belongs to a different ring")
        rows.extend(ring.basis_product_rows(el.index))
    return _from_lattice(ring, rows)


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


def principal_lattices(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """(lattices, units) for the principal ideals (x) of the ring.

    ``lattices`` (p x k x k) are their distinct HNF bases; ``units[x]``
    says that (x) is the whole ring, i.e. that its HNF is the identity.
    One ``intmat.hnf_mod`` batch per chunk of the carrier inserts the
    basis multiples b_i * x into diag(d).  The result is kept on the ring,
    because all_ideals and localstruct.units_mask both read it.
    """
    if ring._principal_cache is None:
        d = ring._df
        chunk = intmat.HNF_CHUNK
        units = np.empty(ring.order, dtype=bool)
        found: dict[bytes, None] = {}
        for lo in range(0, ring.order, chunk):
            # row block x holds b_1 * x, ..., b_k * x
            rows = np.einsum("nj,ijl->nil", ring._coords[lo:lo + chunk], ring._sc) % d
            lats = intmat.hnf_mod(np.broadcast_to(np.diag(d), rows.shape), rows, d)
            units[lo:lo + len(lats)] = np.all(np.diagonal(lats, axis1=1, axis2=2) == 1, axis=1)
            found.update(dict.fromkeys(intmat.lattice_keys(lats)))
        ring._principal_cache = (_from_keys(found, ring.k), units)
    return ring._principal_cache


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
    built once per ring.

    Starts from the principal ideals, the zero ideal among them, and
    closes under pairwise sum, pairing each round's new lattices with all
    earlier ones: every ideal is a finite sum of principal ideals, so the
    fixpoint is complete, and every pair of ideals is summed exactly once.
    Each sum's lattice key is looked up (or entered) with a fresh id, so
    the sums, read in the order ``lattice_pair_sums`` yields them, fill
    the lower triangle of the join table.  The ring keeps no Ideal, which
    would refer back to it: a dropped ring is freed at once, not by the
    cycle collector.
    """
    if ring._ideal_cache is None:
        ids = itertools.count()
        seen = dict(zip(intmat.lattice_keys(principal_lattices(ring)[0]), ids))  # key -> id
        sum_ids = array("q")  # id of each pair sum b < a, in lattice_pair_sums order
        paired = 0  # the first ``paired`` lattices have been summed with each other
        while paired < len(seen):
            lattices = _from_keys(seen, ring.k)
            for _, _, sums in intmat.lattice_pair_sums(lattices, ring._df, paired):
                sum_ids.extend(map(seen.setdefault, intmat.lattice_keys(sums), ids))
            paired = len(lattices)
        ideals, order_keys = [], []
        for rows in lattices.tolist():
            lattice = tuple(map(tuple, rows))
            members = _lattice_members(ring, lattice)
            # big-endian bytes compare as the sorted member lists do
            order_keys.append((len(members), members.astype(">u8").tobytes()))
            ideals.append((lattice, mask_from_indices(ring.order, members)))
        order = np.array(sorted(range(len(ideals)), key=order_keys.__getitem__))
        n = len(order)
        dtype = np.min_scalar_type(n - 1)
        ids_by_lattice = np.fromiter(seen.values(), np.int64, n)
        position = np.zeros(next(ids), dtype=dtype)  # id -> sorted position
        position[ids_by_lattice[order]] = np.arange(n)
        joins = np.empty((n, n), dtype=dtype)  # by lattice number
        lower = np.tri(n, k=-1, dtype=bool)  # row-major, its cells are the pairs b < a in order
        joins[lower] = joins.T[lower] = position[np.frombuffer(sum_ids, dtype=np.int64)]
        joins.flat[::n + 1] = position[ids_by_lattice]
        join = joins[order][:, order]
        join.flags.writeable = False
        ring._ideal_cache = (tuple(ideals[p] for p in order.tolist()), join)
    return ring._ideal_cache


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    _same_ring(i, j)
    return Ideal(i.ring, intmat.lattice_sum(i.lattice, j.lattice, i.ring.k))


def ideal_intersect(i: Ideal, j: Ideal) -> Ideal:
    _same_ring(i, j)
    mask = i.mask & j.mask
    lat = intmat.hnf_full_rank(
        [[int(c) for c in i.ring._coords[m]] for m in indices_from_mask(mask)]
        + i.ring.diag_rows(),
        i.ring.k,
    )
    return Ideal(i.ring, lat, _mask=mask)


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """Ideal generated by pairwise products of members (via lattice rows)."""
    _same_ring(i, j)
    ring = i.ring
    rows = []
    for a in i.lattice:
        ai = ring.index_of(a)
        mat = ring.mul_matrix(ai)  # row l = b_l * a
        for b in j.lattice:
            vec = (np.array([c % d for c, d in zip(b, ring.invariant_factors)], dtype=np.int64)
                   @ mat) % ring._df
            rows.append([int(v) for v in vec])
    return _from_lattice(ring, rows)


def annihilator(i: Ideal) -> Ideal:
    """{x : x * I = 0}, found by scanning the carrier against the lattice rows."""
    ring = i.ring
    gen_idx = [ring.index_of(row) for row in i.lattice]
    keep = np.ones(ring.order, dtype=bool)
    for g in gen_idx:
        mat = ring.mul_matrix(g)
        prods = (ring._coords @ mat) % ring._df
        keep &= ~np.any(prods, axis=1)
    members = np.nonzero(keep)[0]
    rows = [[int(c) for c in ring._coords[m]] for m in members]
    lat = intmat.hnf_full_rank(rows + ring.diag_rows(), ring.k)
    return Ideal(ring, lat, _mask=mask_from_indices(ring.order, members))


def lattice_op(kind: str, ring: FiniteRing, i: Ideal, j: Ideal | None = None) -> Ideal:
    """Dispatch: sum | intersect | product (binary) or annihilator (unary)."""
    if i.ring is not ring or (j is not None and j.ring is not ring):
        raise ValidationError("ideal does not belong to this ring")
    if kind == "annihilator":
        if j is not None:
            raise ValueError("annihilator is unary")
        return annihilator(i)
    if j is None:
        raise ValueError(f"{kind} needs two ideals")
    if kind == "sum":
        return ideal_sum(i, j)
    if kind == "intersect":
        return ideal_intersect(i, j)
    if kind == "product":
        return ideal_product(i, j)
    raise ValueError(f"unknown lattice op {kind!r}")


def minimal_ideals(ring: FiniteRing) -> list[Ideal]:
    """Nonzero ideals with no nonzero ideal strictly below them."""
    ideals = [i for i in all_ideals(ring) if i.size > 1]
    out = []
    for cand in ideals:
        if not any(o.size < cand.size and is_subset(o.mask, cand.mask) for o in ideals):
            out.append(cand)
    return out


def _same_ring(i: Ideal, j: Ideal):
    if i.ring is not j.ring:
        raise ValidationError("ideals belong to different rings")
