"""Idempotents, decomposition into local factors, and the chain-local test.

A finite commutative ring R splits along its primitive idempotents e into
the local factors eR; the classification predicate asks every factor to
have linearly ordered ideals.  Each factor is decided as the ideal eR of
R itself, from R's unit flags: no factor ring is built here, and
rogers.counterexample builds one (R / (1 - e)R) only for the factor its
witness lives in.
"""

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import VerificationFailed, ZeroRingRejected
from .ideals import Ideal, ideal_generated, ideal_product, principal_lattices
from .rings import Element, FiniteRing

IDEMPOTENT_CHUNK = 1 << 12  # idempotent pairs per batched product in primitive_idempotents


@dataclass(frozen=True)
class LocalDecomposition:
    """Primitive idempotents e_i with the local factors e_i R, all ideals of R.

    The split is re-verified on R at construction time: the e_i are
    pairwise orthogonal and sum to 1, the |e_i R| multiply to |R|, and
    every e_i R is local, so x -> (e_i x) is an isomorphism of R onto the
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
    """Boolean carrier array marking units.

    An element is a unit exactly when its principal ideal is the whole
    ring, read off the principal-ideal batch that all_ideals shares.
    (Agrees with a pairwise product scan; the tests check that on small
    rings.)
    """
    return principal_lattices(ring)[1].copy()


def is_local(ring: FiniteRing) -> tuple[bool, Ideal | None]:
    """True iff the non-units form an ideal; returns that ideal when they do."""
    _reject_zero(ring)
    maximal = _maximal_ideal(ideal_generated(ring, [ring.unit]), ring.unit, units_mask(ring))
    return maximal is not None, maximal


def _maximal_ideal(factor: Ideal, e: Element, units: np.ndarray) -> Ideal | None:
    """The non-units of the factor eR when they form an ideal (eR is then
    local), else None; ``units`` marks the units of R.

    x in eR is a unit of eR iff x + (1 - e) is a unit of R, and the ideals
    of R inside eR are exactly the ideals of eR.
    """
    ring = factor.ring
    members = factor.members
    nonunits = members[~units[ring.add_to_all((ring.unit - e).index, members)]]
    closure = ideal_generated(ring, [ring.element_at(int(i)) for i in nonunits])
    return closure if closure.size == len(nonunits) else None


def local_decomposition(ring: FiniteRing) -> LocalDecomposition:
    """Split along primitive idempotents and re-verify the split on R."""
    _reject_zero(ring)
    prim = primitive_idempotents(ring)
    total = ring.zero
    for i, e in enumerate(prim):
        total = total + e
        if any(ring.mul(e, f) != ring.zero for f in prim[i + 1:]):
            raise VerificationFailed("idempotents are not pairwise orthogonal")
    if total != ring.unit:
        raise VerificationFailed("idempotents do not sum to 1")
    factors = [ideal_generated(ring, [e]) for e in prim]
    if prod(f.size for f in factors) != ring.order:
        raise VerificationFailed("factor orders do not multiply to |R|")
    units = units_mask(ring)
    maximals = [_maximal_ideal(f, e, units) for f, e in zip(factors, prim)]
    if any(m is None for m in maximals):
        raise VerificationFailed("decomposition produced a non-local factor")
    return LocalDecomposition(
        ring=ring,
        idempotents=tuple(prim),
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
