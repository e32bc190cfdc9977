"""Shift minimization for unions of ideal cosets, and witness construction.

The central question: can shifting ideals I_1, ..., I_r by elements
a_1, ..., a_r make |union (a_j + I_j)| drop below |union I_j|?  Rings that
admit no such drop for any ideals are exactly the products of chain local
rings; this module decides the question exhaustively and, in the negative
case, constructs an explicit verified witness.

Conventions (all load-bearing for determinism):
  * a_1 is pinned to 0 (translation invariance);
  * each a_j ranges over coset representatives of I_j, each representative
    being the least carrier element of its coset, listed in carrier order;
  * shift tuples are scanned with position 2 varying fastest, mirroring
    the mixed-radix carrier enumeration, and the first minimizer wins.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from . import config
from .bitset import flags_from_mask, lowest_bit, mask_from_indices, min_union_scan
from .errors import (
    AlreadyChainLocalProduct,
    NotLocal,
    SearchSpaceTooLarge,
    UniqueMinimalIdeal,
    ValidationError,
    VerificationFailed,
    ZeroRingRejected,
)
from .ideals import (
    Ideal,
    all_ideals,
    annihilator,
    ideal_generated,
    ideal_from_members,
    join_table,
)
from .localstruct import ClassificationVerdict, classify, is_local
from .rings import Element, FiniteRing, make_quotient

TRIPLE_CHUNK = 1 << 15  # ideal triples (and meet-table cells) per numpy pass of theorem2_verify


@dataclass(frozen=True)
class RogersReport:
    """Outcome of a shift minimization over a tuple of ideals."""

    ideals: tuple[Ideal, ...]
    baseline: int
    minimum: int
    witness_shifts: tuple[Element, ...]
    satisfied: bool
    tuples_examined: int


@dataclass(frozen=True)
class Witness:
    """Three ideals plus shifts certifying a strict union shrink."""

    ideals: tuple[Ideal, Ideal, Ideal]
    shifts: tuple[Element, Element, Element]
    union_shifted: int
    union_baseline: int

    def __post_init__(self):
        if not self.union_shifted < self.union_baseline:
            raise ValidationError("witness does not shrink the union")


def coset_representatives(ideal: Ideal) -> tuple[np.ndarray, np.ndarray]:
    """(reps, labels): the least element of each coset, in carrier order, and
    the number of the coset every carrier element lies in.

    Each carrier coordinate vector is reduced against the HNF rows of the
    ideal's lattice, column by column (the arithmetic of
    ``intmat.lattice_reduce``); read mixed-radix, the reduced coordinates
    key the cosets.
    """
    ring = ideal.ring
    basis = np.array(ideal.lattice, dtype=np.int64)
    coords = ring._coords.copy()
    key = np.zeros(ring.order, dtype=np.int64)
    weight = 1
    for i in range(ring.k):
        pivot = int(basis[i, i])
        coords[:, i:] -= (coords[:, i] // pivot)[:, None] * basis[i, i:]
        key += coords[:, i] * weight
        weight *= pivot
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _union_at(ring: FiniteRing, ideals, shifts) -> int:
    mask = 0
    for ideal, shift in zip(ideals, shifts):
        idx = shift.index if isinstance(shift, Element) else int(shift)
        mask |= mask_from_indices(ring.order, ring.add_to_all(idx, ideal.members))
    return mask.bit_count()


def rogers_check(
    ring: FiniteRing,
    ideals,
    shifts=None,
    tuple_cap: int = config.TUPLE_CAP,
    workers: int = 1,
    coset_cache: dict | None = None,
) -> RogersReport:
    """Exact minimum of |union (a_j + I_j)| over all shift tuples.

    Full mode (``shifts`` is None) fixes a_1 = 0, scans every tuple of
    coset representatives without early exit, and reports the first
    minimizer.  With ``shifts`` given, evaluates exactly that tuple.
    ``coset_cache`` (keyed by ideal) only avoids recomputing transversals
    across calls; it never changes results, and neither does ``workers``.
    """
    ideals = tuple(ideals)
    if len(ideals) < 1:
        raise ValueError("need at least one ideal")
    if ring.is_zero:
        raise ZeroRingRejected("shift minimization undefined for the order-1 ring")
    for ideal in ideals:
        if not isinstance(ideal, Ideal) or ideal.ring is not ring:
            raise ValidationError("all ideals must belong to the given ring")

    baseline_mask = 0
    for ideal in ideals:
        baseline_mask |= ideal.mask
    baseline = baseline_mask.bit_count()

    if shifts is not None:
        shift_els = tuple(
            s if isinstance(s, Element) else ring.element(s) for s in shifts
        )
        if len(shift_els) != len(ideals):
            raise ValueError("need one shift per ideal")
        value = _union_at(ring, ideals, shift_els)
        return RogersReport(
            ideals=ideals,
            baseline=baseline,
            minimum=value,
            witness_shifts=shift_els,
            satisfied=value >= baseline,
            tuples_examined=1,
        )

    cache = {} if coset_cache is None else coset_cache
    transversals = []
    for ideal in ideals[1:]:
        if ideal not in cache:
            cache[ideal] = coset_representatives(ideal)
        transversals.append(cache[ideal])
    sizes = [len(reps) for reps, _ in transversals]
    total = prod(sizes)
    if total > tuple_cap:
        raise SearchSpaceTooLarge(total, tuple_cap)

    base = flags_from_mask(ring.order, ideals[0].mask)
    best_val, digits = min_union_scan(base, [labels for _, labels in transversals], sizes)
    shift_els = [ring.zero]
    shift_els += [ring.element_at(int(reps[d])) for (reps, _), d in zip(transversals, digits)]
    return RogersReport(
        ideals=ideals,
        baseline=baseline,
        minimum=best_val,
        witness_shifts=tuple(shift_els),
        satisfied=best_val >= baseline,
        tuples_examined=total,
    )


# -- witness construction ----------------------------------------------------


def socle_witness(ring: FiniteRing) -> Witness:
    """Violating triple of minimal ideals in a local ring with a fat socle.

    The annihilator of the maximal ideal is a vector space over the residue
    field whose one-dimensional subspaces are the minimal ideals; three
    distinct lines of a plane inside it shrink under the shift (0, v, 0).
    """
    local, maximal = is_local(ring)
    if not local:
        raise NotLocal("socle construction requires a local ring")
    return _socle_witness(ring, maximal)


def _socle_witness(ring: FiniteRing, maximal: Ideal) -> Witness:
    """:func:`socle_witness` for a local ring with the given maximal ideal."""
    socle = annihilator(maximal)
    residue_order = ring.order // maximal.size
    if socle.size == residue_order or socle.size == ring.order:
        # one line only: the unique minimal ideal (fields land here too)
        raise UniqueMinimalIdeal("socle is one-dimensional")

    members = [int(m) for m in socle.members]
    v1 = members[1]  # least nonzero socle element
    line1 = ideal_generated(ring, [ring.element_at(v1)])
    v2 = next(m for m in members if not (line1.mask >> m) & 1)
    plane = ideal_generated(ring, [ring.element_at(v1), ring.element_at(v2)])

    lines = []
    seen = set()
    for m in plane.members:
        m = int(m)
        if m == 0:
            continue
        line = ideal_generated(ring, [ring.element_at(m)])
        if line.mask not in seen:
            seen.add(line.mask)
            lines.append(line)
    lines.sort(key=lambda i: tuple(int(m) for m in i.members))
    i1, i2, i3 = lines[0], lines[1], lines[2]

    v = next(int(m) for m in plane.members if not (i2.mask >> int(m)) & 1)
    shifts = (ring.zero, ring.element_at(v), ring.zero)
    report = rogers_check(ring, (i1, i2, i3), shifts=shifts)
    return Witness(
        ideals=(i1, i2, i3),
        shifts=shifts,
        union_shifted=report.minimum,
        union_baseline=report.baseline,
    )


def counterexample(ring: FiniteRing) -> Witness:
    """Constructive witness for any ring that is not a chain-local product.

    Recursion mirrors the structure theory: pick the offending local
    factor; inside it either read the witness off the socle or quotient by
    the unique minimal ideal, recurse, and pull the witness back through
    the projection; finally embed into the full ring and re-verify.  A
    local ring is its own factor, so no factor ring is built for it.
    """
    return _witness_from_verdict(classify(ring))


def _witness_from_verdict(verdict: ClassificationVerdict) -> Witness:
    """The witness of :func:`counterexample`, built on the verdict's decomposition."""
    if verdict.is_chain_local_product:
        raise AlreadyChainLocalProduct("every local factor has linearly ordered ideals")
    decomp = verdict.decomposition
    ring = decomp.ring
    if len(decomp.idempotents) == 1:  # R is its own local factor
        witness = _local_witness(ring, decomp.maximal_ideals[0])
    else:
        fidx = verdict.offending_factor
        e = decomp.idempotents[fidx]
        factor, proj = make_quotient(ring, ideal_generated(ring, [ring.unit - e]))  # R/(1-e)R = eR
        # proj maps eR isomorphically onto the factor, so the maximal ideal onto its maximal ideal
        images = [proj(ring.element(row)) for row in decomp.maximal_ideals[fidx].lattice]
        local_witness = _local_witness(factor, ideal_generated(factor, images))
        # preimages are I_j x (the other factors); e * section(s) lifts each shift
        shifts = tuple(ring.mul(e, proj.section(s)) for s in local_witness.shifts)
        witness = _pull_back(ring, proj, local_witness, shifts)
    report = rogers_check(ring, witness.ideals, shifts=witness.shifts)
    if report.minimum != witness.union_shifted or report.baseline != witness.union_baseline:
        raise VerificationFailed("counterexample failed re-verification")
    return witness


def _local_witness(ring: FiniteRing, maximal: Ideal) -> Witness:
    """Witness inside a local ring with non-chain ideals and maximal ideal ``maximal``."""
    try:
        return _socle_witness(ring, maximal)
    except UniqueMinimalIdeal:
        pass
    socle = annihilator(maximal)
    quotient, proj = make_quotient(ring, socle)  # socle = unique minimal ideal here
    inner = counterexample(quotient)
    shifts = tuple(proj.smallest_preimage(s) for s in inner.shifts)
    return _pull_back(ring, proj, inner, shifts)


def _pull_back(ring: FiniteRing, proj, witness: Witness, shifts) -> Witness:
    """Full preimages of the witness ideals under ``proj``, with the given shifts."""
    imap = proj.index_map()
    ideals = []
    for ideal in witness.ideals:
        members = np.nonzero(flags_from_mask(proj.target.order, ideal.mask)[imap])[0]
        ideals.append(ideal_from_members(ring, members))
    report = rogers_check(ring, tuple(ideals), shifts=shifts)
    return Witness(
        ideals=tuple(ideals),
        shifts=shifts,
        union_shifted=report.minimum,
        union_baseline=report.baseline,
    )


# -- whole-ring verification --------------------------------------------------


def theorem2_verify(
    ring: FiniteRing,
    r_max: int = 3,
    tuple_cap: int = config.TUPLE_CAP,
) -> bool:
    """True iff every ideal triple (and, opting in, every tuple up to
    ``r_max``) survives shift minimization.

    Triples are decided by the exact intersection-pattern criterion, on
    the ideals' join and meet tables; every negative verdict is confirmed
    by evaluating an explicit shrinking tuple before returning.  Raises
    SearchSpaceTooLarge, before any scan, when the antichains of 4 to
    ``r_max`` ideals, which the walk past triples scans, outnumber
    ``tuple_cap``.  Must agree with the chain-local-product classification
    on every ring; the acceptance suite asserts exactly that.
    """
    if ring.is_zero:
        raise ZeroRingRejected("verification undefined for the order-1 ring")
    if r_max < 3:
        raise ValueError("r_max below 3 checks nothing the pair theory does not cover")
    ideals = all_ideals(ring)
    join = join_table(ring)
    required = _antichain_count(join, r_max, tuple_cap)
    if required > tuple_cap:
        raise SearchSpaceTooLarge(required, tuple_cap, at_least=True)

    meet = _meet_table(join)
    failing = _first_failing_triple(join, meet)
    if failing is not None:
        a, b, c = failing
        masks = [ideals[t].mask for t in (join[a, c], join[b, c], join[meet[a, b], c])]
        gap = masks[0] & masks[1] & ~masks[2]
        if not gap:
            raise VerificationFailed("triple tables disagree with the ideal masks")
        shifts = (ring.zero, ring.zero, ring.element_at(lowest_bit(gap)))
        confirm = rogers_check(ring, (ideals[a], ideals[b], ideals[c]), shifts=shifts)
        if confirm.satisfied:
            raise VerificationFailed("pattern criterion disagrees with evaluation")
        return False

    # a tuple of ideals scans as the set of its maximal members does, and
    # every such set of at most three ideals has passed the triple test
    for chosen in _antichains(join, 4, r_max):
        report = rogers_check(ring, tuple(ideals[i] for i in chosen), tuple_cap=tuple_cap)
        if not report.satisfied:
            return False
    return True


def _meet_table(join: np.ndarray) -> np.ndarray:
    """``meet[a, b]``: the position of the intersection of ideals a and b.

    The intersection is among the ideals and holds every ideal below both,
    and the ideals are sorted by size, so it is the last ideal below both;
    ``join[c, a] == a`` says that ideal c lies below ideal a.
    """
    n = len(join)
    below = (join == np.arange(n)).T[:, ::-1]  # below[a, n - 1 - c]: ideal c lies in ideal a
    meet = np.empty_like(join)
    step = max(1, TRIPLE_CHUNK // (n * n))
    for lo in range(0, n, step):
        meet[lo:lo + step] = n - 1 - np.argmax(below[lo:lo + step, None] & below[None], axis=-1)
    return meet


def _first_failing_triple(join: np.ndarray, meet: np.ndarray) -> tuple[int, int, int] | None:
    """First ideal triple (a, b >= a, c >= b), in that order, that breaks
    (I_a + I_c) & (I_b + I_c) <= (I_a & I_b) + I_c, or None.

    With X, Y, Z the three sides, the triple breaks it iff
    meet[meet[X, Y], Z] != meet[X, Y].  The a-rows go in chunks of about
    TRIPLE_CHUNK triples, each spanning b, c >= the chunk's first a.
    """
    n = len(join)
    lo = 0
    while lo < n:
        m = n - lo
        hi = min(n, lo + max(1, TRIPLE_CHUNK // (m * m)))
        x = join[lo:hi, None, lo:]  # I_a + I_c
        y = join[None, lo:, lo:]  # I_b + I_c
        z = join[:, lo:][meet[lo:hi, lo:]]  # (I_a & I_b) + I_c
        xy = meet[x, y]
        fails = meet[xy, z] != xy
        fails &= (np.arange(m) >= np.arange(hi - lo)[:, None])[:, :, None]  # b >= a
        fails &= np.tri(m, dtype=bool).T  # c >= b
        first = int(np.argmax(fails))
        if fails.flat[first]:
            r, b, c = np.unravel_index(first, fails.shape)
            return lo + int(r), lo + int(b), lo + int(c)
        lo = hi
    return None


def _antichain_count(join: np.ndarray, largest: int, cap: int) -> int:
    """The antichains of 4 to ``largest`` ideals, counted until the count
    passes ``cap``.  Bit d of ``later[c]`` says that d > c is apart from c;
    a set extends by its candidates, the ideals later than and apart from
    all its members, and a set one short of ``largest`` counts them at once.
    """
    if largest < 4:
        return 0
    below = join == np.arange(len(join))
    later = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
             for row in np.triu(~(below | below.T), 1)]
    count, stack = 0, [(1, candidates) for candidates in later]  # (size, candidates) per set
    while stack and count <= cap:
        size, candidates = stack.pop()
        count += size >= 4
        if size == largest - 1:
            count += candidates.bit_count()
        elif size + candidates.bit_count() >= 4:
            rest = candidates
            while rest:
                c = rest.bit_length() - 1
                rest ^= 1 << c
                stack.append((size + 1, candidates & later[c]))
    return count


def _antichains(join: np.ndarray, smallest: int, largest: int):
    """Sets of ``smallest`` to ``largest`` ideals none of which lies in
    another, as increasing position tuples: by size, then in lexicographic
    order, the order in which a walk over multisets of ideals first meets
    them.  ``join[c, d] == d`` says that ideal c lies in ideal d.
    """
    below = join == np.arange(len(join))
    apart = (~(below | below.T)).tolist()

    def extend(chosen, candidates, size):
        if len(chosen) == size:
            yield chosen
            return
        for i, c in enumerate(candidates):
            if len(chosen) + len(candidates) - i < size:
                break
            yield from extend(chosen + (c,), [d for d in candidates[i + 1:] if apart[c][d]], size)

    for size in range(smallest, largest + 1):
        yield from extend((), list(range(len(join))), size)
