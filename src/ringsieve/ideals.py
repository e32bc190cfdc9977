"""Ideals of a finite ring: generation, full enumeration, lattice operations.

An ideal is identified by its membership mask over the carrier; as an
additive subgroup it is also carried as a full-rank integer lattice in the
ring's coordinate space (always containing the relation rows d_i * e_i).
The lattice view makes sums and spans cheap exact HNF computations; the
mask view makes equality, intersection and containment single big-int ops.
"""

import itertools
from array import array
from dataclasses import dataclass
from math import prod

import numpy as np

from . import intmat
from .bitset import flags_from_mask, is_subset, mask_from_indices
from .errors import ValidationError, VerificationFailed
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
    indices = []
    for g in gens:
        el = g if isinstance(g, Element) else ring.element(g)
        if el.ring is not ring:
            raise ValidationError("generator belongs to a different ring")
        indices.append(el.index)
    return _from_lattice(ring, _basis_products(ring, indices).reshape(-1, ring.k).tolist())


def _basis_products(ring: FiniteRing, indices) -> np.ndarray:
    """(len(indices), k, k): row i of block t holds b_i * x for the carrier
    element x = indices[t]; the rows of a block span the principal ideal (x)."""
    return np.einsum("nj,ijl->nil", ring._coords[indices], ring._sc) % ring._df


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
    """R's derived structure, read off its local factors eR.  No Element or Ideal
    here would refer back to the ring, so a dropped ring is freed at once."""

    idempotents: tuple[int, ...]  # carrier indices of the e
    lattices: tuple[np.ndarray, ...]  # per eR: eR, then its proper nonzero principal ideals
    units: np.ndarray  # carrier flags
    ideals: tuple | None = None  # (sorted (lattice, mask) pairs, join table), by all_ideals


def ring_structure(ring: FiniteRing) -> RingStructure:
    """The ring's :class:`RingStructure`, built on first use.

    R is the product of the eR, e a primitive idempotent (McDonald, *Finite
    Rings with Identity*, 1974); eR holds the x with e * x = x.  The split
    raises ``VerificationFailed`` unless the e are pairwise orthogonal and
    sum to 1 and the |eR| multiply to |R|.  (y) is the same ideal in R and
    in eR, so one ``hnf_mod`` batch per ``HNF_CHUNK`` members of all eR
    gives the principal lattices; y is a unit of eR iff (y) has |eR|
    elements, and x one of R iff every e * x is one of eR.
    """
    if ring._structure is None:
        from . import localstruct  # which imports this module

        prim = [] if ring.is_zero else [e.index for e in localstruct.primitive_idempotents(ring)]
        d, coords, order = ring._df, ring._coords, ring.order
        images, members = [], []
        for i, mat in enumerate(_basis_products(ring, prim)):
            image = (coords @ mat) % d @ ring._weights  # image[x] is e * x
            if image[prim[i + 1:]].any():
                raise VerificationFailed("idempotents are not pairwise orthogonal")
            images.append(image)
            members.append(np.flatnonzero(image == np.arange(order)))
        if np.any((coords[prim].sum(axis=0) - ring.presentation.unit) % d):
            raise VerificationFailed("idempotents do not sum to 1")
        sizes = [len(m) for m in members]
        if prod(sizes) != order:
            raise VerificationFailed("factor orders do not multiply to |R|")
        flat = np.concatenate([np.zeros(0, dtype=np.int64)] + members)
        owner = np.repeat(np.arange(len(prim)), sizes)
        is_unit = np.empty(len(flat), dtype=bool)
        found = [{} for _ in prim]  # per factor, lattice key -> None
        for lo in range(0, len(flat), intmat.HNF_CHUNK):
            rows = _basis_products(ring, flat[lo:lo + intmat.HNF_CHUNK])
            lats = intmat.hnf_mod(np.broadcast_to(np.diag(d), rows.shape), rows, d)
            part = owner[lo:lo + len(lats)]
            is_unit[lo:lo + len(lats)] = _lattice_index(lats) == order // np.take(sizes, part)
            for f, key in zip(part.tolist(), intmat.lattice_keys(lats)):
                found[f][key] = None
        units = np.ones(order, dtype=bool)
        per_factor = []
        for image, member, flags, keys, size in zip(
                images, members, np.split(is_unit, np.cumsum(sizes)[:-1]), found, sizes):
            factor_units = np.zeros(order, dtype=bool)
            factor_units[member] = flags
            units &= factor_units[image]
            lattices = _from_keys(keys, ring.k)
            index = _lattice_index(lattices)
            whole, zero = index == order // size, index == order  # eR, and 0
            per_factor.append(np.concatenate([lattices[whole], lattices[~whole & ~zero]]))
        ring._structure = RingStructure(tuple(prim), tuple(per_factor), units)
    return ring._structure


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
        factors = [_factor_ideals(lattices, d) for lattices in structure.lattices]
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


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    _same_ring(i, j)
    return Ideal(i.ring, intmat.lattice_sum(i.lattice, j.lattice, i.ring.k))


def ideal_intersect(i: Ideal, j: Ideal) -> Ideal:
    _same_ring(i, j)
    mask = i.mask & j.mask
    members = i.ring._coords[flags_from_mask(i.ring.order, mask)].tolist()
    lat = intmat.hnf_full_rank(members + i.ring.diag_rows(), i.ring.k)
    return Ideal(i.ring, lat, _mask=mask)


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """Ideal generated by pairwise products of members (via lattice rows)."""
    _same_ring(i, j)
    ring = i.ring
    d = ring._df
    mats = _basis_products(ring, [ring.index_of(a) for a in i.lattice])  # mats[a][l] = b_l * a
    rows = np.einsum("bl,alm->abm", np.array(j.lattice, dtype=np.int64) % d, mats) % d
    return _from_lattice(ring, rows.reshape(-1, ring.k).tolist())


def annihilator(i: Ideal) -> Ideal:
    """{x : x * I = 0}, found by scanning the carrier against the lattice rows."""
    ring = i.ring
    mats = _basis_products(ring, [ring.index_of(row) for row in i.lattice])
    prods = np.einsum("nj,gjl->ngl", ring._coords, mats) % ring._df  # prods[x, g] = x * g
    members = np.nonzero(~prods.any(axis=(1, 2)))[0]
    lat = intmat.hnf_full_rank(ring._coords[members].tolist() + ring.diag_rows(), ring.k)
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
