"""Idempotents, decomposition into local factors, and the chain-local test.

A finite commutative ring R splits along its primitive idempotents e into
the local factors eR; the classification predicate asks every factor to
have linearly ordered ideals.  Each factor is decided as the ideal eR of
R itself, from R's unit flags: no factor ring is built here, and
rogers.counterexample builds one (R / (1 - e)R) only for the factor its
witness lives in, and none when R is local.
"""

from dataclasses import dataclass, field

import numpy as np

from . import intmat
from .errors import VerificationFailed, ZeroRingRejected
from .ideals import Ideal, ideal_product, ring_structure, unit_ideal
from .rings import Element, FiniteRing

IDEMPOTENT_CHUNK = 1 << 12  # idempotent pairs per batched product in primitive_idempotents


@dataclass(frozen=True)
class LocalDecomposition:
    """Primitive idempotents e_i with the local factors e_i R, all ideals of R.

    The split is re-verified on R whenever the ring's structure is built
    (the e_i pairwise orthogonal and summing to 1, the |e_i R| multiplying
    to |R|), and here every e_i R is checked local, so x -> (e_i x) is an isomorphism of R onto the
    product of the e_i R.  ``maximal_ideals[i]`` is the maximal ideal of
    e_i R (its non-units), found by the locality check.
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
    """Boolean carrier array marking units: x is a unit exactly when every
    e * x is a unit of its factor eR, read off the ring's structure.
    (Agrees with a pairwise product scan; the tests check that.)
    """
    return ring_structure(ring).units.copy()


def is_local(ring: FiniteRing) -> tuple[bool, Ideal | None]:
    """True iff the non-units form an ideal; returns that ideal when they do."""
    _reject_zero(ring)
    if len(ring_structure(ring).idempotents) > 1:
        return False, None
    maximal = _maximal_ideal(unit_ideal(ring), ring.unit, units_mask(ring))
    return maximal is not None, maximal


def _maximal_ideal(factor: Ideal, e: Element, units: np.ndarray) -> Ideal | None:
    """The non-units of the factor eR when they form an ideal (eR is then
    local), else None; ``units`` marks the units of R.

    x in eR is a unit of eR iff x + (1 - e) is a unit of R, and the ideals
    of R inside eR are exactly the ideals of eR.  The non-units generate
    the sum of the proper nonzero principal ideals of eR, summed in halves.
    """
    ring = factor.ring
    nonunits = np.count_nonzero(~units[ring.add_to_all((ring.unit - e).index, factor.members)])
    structure = ring_structure(ring)
    lattices = structure.lattices[structure.idempotents.index(e.index)][1:]
    if not len(lattices):
        lattices = np.diag(ring._df)[None]  # eR is a field, m = 0
    while len(lattices) > 1:
        half = len(lattices) // 2
        sums = intmat.hnf_mod(lattices[:half], lattices[half:2 * half], ring._df)
        lattices = np.concatenate([sums, lattices[2 * half:]])
    closure = Ideal(ring, tuple(map(tuple, lattices[0].tolist())))
    return closure if closure.size == nonunits else None


def local_decomposition(ring: FiniteRing) -> LocalDecomposition:
    """The split the ring's structure verified, each factor checked local."""
    _reject_zero(ring)
    structure = ring_structure(ring)
    units = units_mask(ring)
    idempotents = [ring.element_at(e) for e in structure.idempotents]
    factors = [Ideal(ring, tuple(map(tuple, f[0].tolist()))) for f in structure.lattices]
    maximals = [_maximal_ideal(f, e, units) for f, e in zip(factors, idempotents)]
    if any(m is None for m in maximals):
        raise VerificationFailed("decomposition produced a non-local factor")
    return LocalDecomposition(
        ring=ring,
        idempotents=tuple(idempotents),
        factor_ideals=tuple(factors),
        maximal_ideals=tuple(maximals),
    )


def classify(ring: FiniteRing) -> ClassificationVerdict:
    """Decompose and test every local factor for linearly ordered ideals.

    A finite local ring has linearly ordered ideals iff its maximal ideal
    m is principal (Clark-Drake 1973; McDonald 1974, ch. XVII), which by
    Nakayama's lemma holds iff |m|^2 <= |eR| * |m^2|.
    """
    decomp = local_decomposition(ring)
    per_factor = []
    offending = None
    for idx, (factor, maximal) in enumerate(zip(decomp.factor_ideals, decomp.maximal_ideals)):
        chain = maximal.size ** 2 <= factor.size * ideal_product(maximal, maximal).size
        per_factor.append((idx, True, chain))
        if not chain and offending is None:
            offending = idx
    return ClassificationVerdict(
        is_chain_local_product=offending is None,
        per_factor=tuple(per_factor),
        offending_factor=offending,
        decomposition=decomp,
    )
