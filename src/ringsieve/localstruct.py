"""Idempotents, decomposition into local factors, and the chain-local test.

A finite commutative ring R splits along its primitive idempotents e into
the local factors eR; the classification predicate asks every factor to
have linearly ordered ideals.  Each factor is decided as the ideal eR of
R itself, from R's nilradical J: no factor ring is built here, and
rogers.counterexample builds one (R / (1 - e)R) only for the factor its
witness lives in, and none when R is local.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroRingRejected
from .ideals import Ideal, _basis_products, _lattice_index, _lattice_members, ring_structure
from .rings import Element, FiniteRing

IDEMPOTENT_CHUNK = 1 << 12  # idempotent pairs per batched product in primitive_idempotents


@dataclass(frozen=True)
class LocalDecomposition:
    """Primitive idempotents e_i with the local factors e_i R, all ideals of R.

    The split is re-verified on R whenever the ring's structure is built
    (the e_i pairwise orthogonal and summing to 1, the |e_i R| multiplying
    to |R|, as many e_i as R has local factors), so every e_i R is local and
    x -> (e_i x) is an isomorphism of R onto the product of the e_i R.
    ``maximal_ideals[i]`` is the maximal ideal e_i J of e_i R, J the
    nilradical of R.
    """

    ring: FiniteRing
    idempotents: tuple[Element, ...]
    factor_ideals: tuple[Ideal, ...]
    maximal_ideals: tuple[Ideal, ...]


@dataclass(frozen=True)
class ClassificationVerdict:
    """The chain-local test, with the decomposition it was computed from."""

    is_chain_local_product: bool
    per_factor: tuple[tuple[int, bool, bool], ...]  # (index, is_local, is_chain)
    offending_factor: int | None
    decomposition: LocalDecomposition = field(compare=False, repr=False)


def _reject_zero(ring: FiniteRing):
    if ring.is_zero:
        raise ZeroRingRejected("operation undefined for the order-1 ring")


def idempotents(ring: FiniteRing) -> list[Element]:
    """All e with e*e = e, in carrier order (whole carrier squared at once)."""
    coords, df = ring._coords, ring._df
    # reduce between the two products: x*x*c in one step wraps int64 for large moduli
    mats = np.einsum("ni,ijl->njl", coords, ring._sc) % df
    squares = np.einsum("nj,njl->nl", coords, mats) % df
    hits = np.nonzero(np.all(squares == coords, axis=1))[0]
    return [ring.element_at(int(i)) for i in hits]


def primitive_idempotents(ring: FiniteRing) -> list[Element]:
    """Minimal nonzero idempotents under e <= f iff e*f = e, in carrier order.

    Every product e*f is computed in batches of about IDEMPOTENT_CHUNK
    pairs, reducing between the two products as :func:`idempotents` does.
    """
    _reject_zero(ring)
    idems = [e for e in idempotents(ring) if e.index != 0]
    coords = ring._coords[[e.index for e in idems]]
    df = ring._df
    mats = np.einsum("fi,ijl->fjl", coords, ring._sc) % df  # row j of mats[f] is b_j * f
    step = max(1, IDEMPOTENT_CHUNK // len(idems))
    prim = []
    for lo in range(0, len(idems), step):
        prods = np.einsum("ej,fjl->efl", coords[lo:lo + step], mats) % df  # prods[e, f] = e * f
        below = np.all(prods == coords, axis=-1)  # below[e, f]: f <= e
        below[np.arange(len(below)), np.arange(lo, lo + len(below))] = False
        prim += [e for e, lower in zip(idems[lo:], below.any(axis=1)) if not lower]
    return prim


def units_mask(ring: FiniteRing) -> np.ndarray:
    """Boolean carrier array marking units: x is a unit exactly when no
    e * x lies in the nilradical J.  Built on first use and kept in the
    ring's structure.  (Agrees with a pairwise product scan; the tests
    check that.)
    """
    structure = ring_structure(ring)
    if structure.units is None:
        d, coords = ring._df, ring._coords
        nilpotent = np.zeros(ring.order, dtype=bool)
        nilpotent[_lattice_members(ring, structure.radical)] = True
        units = np.ones(ring.order, dtype=bool)
        for mat in _basis_products(ring, coords[list(structure.idempotents)]):
            units &= ~nilpotent[(coords @ mat) % d @ ring._weights]  # e * x
        structure.units = units
    return structure.units.copy()


def is_local(ring: FiniteRing) -> tuple[bool, Ideal | None]:
    """True iff the non-units form an ideal; returns that ideal, the
    nilradical, when they do."""
    _reject_zero(ring)
    structure = ring_structure(ring)
    if len(structure.idempotents) > 1:
        return False, None
    return True, _ideal(ring, structure.radical)


def _ideal(ring: FiniteRing, lattice: np.ndarray) -> Ideal:
    return Ideal(ring, tuple(map(tuple, lattice.tolist())))


def local_decomposition(ring: FiniteRing) -> LocalDecomposition:
    """The split the ring's structure verified, with each factor's maximal ideal."""
    _reject_zero(ring)
    structure = ring_structure(ring)
    return LocalDecomposition(
        ring=ring,
        idempotents=tuple(ring.element_at(e) for e in structure.idempotents),
        factor_ideals=tuple(_ideal(ring, f) for f in structure.factors),
        maximal_ideals=tuple(_ideal(ring, m) for m in structure.maximal),
    )


def classify(ring: FiniteRing) -> ClassificationVerdict:
    """Decompose and test every local factor for linearly ordered ideals.

    A finite local ring has linearly ordered ideals iff its maximal ideal
    m is principal (Clark-Drake 1973; McDonald 1974, ch. XVII), which by
    Nakayama's lemma holds iff |m|^2 <= |eR| * |m^2|.  For eR, m = e * J
    and m^2 = e * J^2, with J the nilradical, both read off the ring's
    structure.
    """
    decomp = local_decomposition(ring)
    squares = ring.order // _lattice_index(ring_structure(ring).squares)
    per_factor = []
    offending = None
    for idx, (factor, maximal, square) in enumerate(
            zip(decomp.factor_ideals, decomp.maximal_ideals, squares.tolist())):
        chain = maximal.size ** 2 <= factor.size * square
        per_factor.append((idx, True, chain))
        if not chain and offending is None:
            offending = idx
    return ClassificationVerdict(
        is_chain_local_product=offending is None,
        per_factor=tuple(per_factor),
        offending_factor=offending,
        decomposition=decomp,
    )
