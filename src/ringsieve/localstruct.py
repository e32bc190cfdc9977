"""Idempotents, decomposition into local factors, and the chain-local test.

A finite commutative ring splits along its primitive idempotents into
local factors; the classification predicate asks every factor to have
linearly ordered ideals.  Factors are materialized as standalone rings
(quotients by the complementary idempotent's ideal), never as views.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import VerificationFailed, ZeroRingRejected
from .ideals import Ideal, ideal_generated, is_chain, principal_lattices
from .rings import Element, FiniteRing, RingHom, make_product, make_quotient

IDEMPOTENT_CHUNK = 1 << 12  # idempotent pairs per batched product in primitive_idempotents


@dataclass(frozen=True)
class LocalDecomposition:
    """Primitive idempotents with the matching local factors.

    ``embeddings[i]`` is the projection realizing factor i; jointly they
    give the isomorphism onto the product of the factors, which is
    re-verified exhaustively on the carrier at construction time.
    ``maximal_ideals[i]`` is factor i's maximal ideal, found by the locality check.
    """

    ring: FiniteRing
    idempotents: tuple[Element, ...]
    factors: tuple[FiniteRing, ...]
    embeddings: tuple[RingHom, ...]
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
    nonunits = np.nonzero(~units_mask(ring))[0]
    closure = ideal_generated(ring, [ring.element_at(int(i)) for i in nonunits])
    if closure.size != len(nonunits):
        return False, None
    return True, closure


def local_decomposition(ring: FiniteRing) -> LocalDecomposition:
    """Split along primitive idempotents and re-verify the product isomorphism."""
    _reject_zero(ring)
    prim = primitive_idempotents(ring)
    factors = []
    embeddings = []
    one = ring.unit
    for e in prim:
        complement = ideal_generated(ring, [one - e])
        factor, proj = make_quotient(ring, complement)
        factors.append(factor)
        embeddings.append(proj)
    _verify_product_iso(ring, factors, embeddings)
    total = 1
    for f in factors:
        total *= f.order
    if total != ring.order:
        raise VerificationFailed("factor orders do not multiply to |R|")
    maximals = []
    for f in factors:
        ok, maximal = is_local(f)
        if not ok:
            raise VerificationFailed("decomposition produced a non-local factor")
        maximals.append(maximal)
    return LocalDecomposition(
        ring=ring,
        idempotents=tuple(prim),
        factors=tuple(factors),
        embeddings=tuple(embeddings),
        maximal_ideals=tuple(maximals),
    )


def _verify_product_iso(ring: FiniteRing, factors, embeddings):
    """Confirm x -> (pi_i(x)) is a ring isomorphism onto the rebuilt product.

    The map is constructed as a RingHom (validating unit and basis
    multiplicativity) and then checked to be a carrier bijection.
    """
    product, projections = make_product(factors, carrier_bound=ring.order)
    combined = _combine_map(ring, factors, embeddings, product, projections)
    basis_images = [
        product.element_at(int(combined[int(ring._weights[i]) % ring.order]))
        if ring.invariant_factors[i] > 1
        else product.zero
        for i in range(ring.k)
    ]
    hom = RingHom(ring, product, basis_images)
    if not np.array_equal(hom.index_map(), combined):
        raise VerificationFailed("combined map is not additive")
    seen = np.zeros(product.order, dtype=bool)
    seen[combined] = True
    if not bool(np.all(seen)):
        raise VerificationFailed("decomposition map is not onto the product")


def _combine_map(ring, factors, embeddings, product, projections) -> np.ndarray:
    """Carrier index map x -> product element with coordinates (pi_i(x))."""
    maps = [emb.index_map() for emb in embeddings]
    # For each product basis vector f_t, its factor components are known via
    # the product's own projections; invert by matching component tuples.
    strides = np.ones(len(factors), dtype=np.int64)
    for i in range(1, len(factors)):
        strides[i] = strides[i - 1] * factors[i - 1].order
    comp_key = np.zeros(product.order, dtype=np.int64)
    for proj, stride in zip(projections, strides):
        comp_key += proj.index_map() * stride
    lookup = np.empty(product.order, dtype=np.int64)
    lookup[comp_key] = np.arange(product.order)
    ring_key = np.zeros(ring.order, dtype=np.int64)
    for m, stride in zip(maps, strides):
        ring_key += m * stride
    return lookup[ring_key]


def classify(ring: FiniteRing) -> ClassificationVerdict:
    """Decompose and test every local factor for linearly ordered ideals."""
    decomp = local_decomposition(ring)
    per_factor = []
    offending = None
    for idx, factor in enumerate(decomp.factors):
        chain = is_chain(factor)
        per_factor.append((idx, True, chain))
        if not chain and offending is None:
            offending = idx
    return ClassificationVerdict(
        is_chain_local_product=offending is None,
        per_factor=tuple(per_factor),
        offending_factor=offending,
        decomposition=decomp,
    )
