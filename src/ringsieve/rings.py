"""Finite commutative unital rings presented by structure constants.

A ring is given by the invariant factors of its additive group
(d_1 | d_2 | ... | d_k) together with the coordinate vectors of all basis
products b_i * b_j.  Multiplication is the bilinear extension of those
constants, so associativity and commutativity checked on basis tuples
extend to the whole carrier; the declared unit is additionally checked
against every carrier element.

Carrier enumeration is mixed-radix with coordinate 1 varying fastest:
index(c) = c_1 + c_2*d_1 + c_3*d_1*d_2 + ...  Every "smallest element"
tie-break in the library refers to this order.
"""

from dataclasses import dataclass, field

import numpy as np

from . import config, intmat
from .bitset import mask_from_indices
from .errors import (
    CarrierTooLarge,
    IllFormedConstants,
    NoUnit,
    NotAssociative,
    NotCommutative,
    ValidationError,
    ZeroRingRejected,
)

Coords = tuple[int, ...]


@dataclass(frozen=True)
class RingPresentation:
    """Raw input data for a finite commutative ring.

    ``structure_constants`` maps basis pairs (i, j) with i <= j (0-based)
    to the coordinate vector of b_i * b_j; missing pairs default to the
    zero product.
    """

    invariant_factors: tuple[int, ...]
    structure_constants: dict[tuple[int, int], Coords] = field(default_factory=dict)
    unit: Coords = ()

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def carrier_size(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n


class Element:
    """A carrier element; coordinates are always stored reduced."""

    __slots__ = ("ring", "coords", "_index")

    def __init__(self, ring: "FiniteRing", coords):
        self.ring = ring
        self.coords = tuple(c % d for c, d in zip(coords, ring.invariant_factors))
        self._index: int | None = None

    @property
    def index(self) -> int:
        if self._index is None:
            self._index = self.ring.index_of(self.coords)
        return self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.ring is self.ring
            and other.coords == self.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.coords))

    def __add__(self, other: "Element") -> "Element":
        return self.ring.add(self, other)

    def __neg__(self) -> "Element":
        return self.ring.neg(self)

    def __sub__(self, other: "Element") -> "Element":
        return self.ring.add(self, self.ring.neg(other))

    def __mul__(self, other: "Element") -> "Element":
        return self.ring.mul(self, other)

    def __repr__(self) -> str:
        return f"Element({','.join(map(str, self.coords))})"


class FiniteRing:
    """A validated finite commutative unital ring.

    Immutable after construction; safe to share across workers.  Use
    :func:`validate_ring`, :func:`make_cyclic`, :func:`make_product` or
    :func:`make_quotient` to obtain instances.
    """

    def __init__(self, presentation: RingPresentation, _token=None):
        if _token is not _CONSTRUCTION_TOKEN:
            raise ValidationError("construct rings via validate_ring/make_*")
        self.presentation = presentation
        self.invariant_factors = presentation.invariant_factors
        self.k = presentation.rank
        self.order = presentation.carrier_size
        df = np.array(self.invariant_factors, dtype=np.int64)
        self._df = df
        weights = np.ones(self.k, dtype=np.int64)
        for i in range(1, self.k):
            weights[i] = weights[i - 1] * df[i - 1]
        self._weights = weights
        sc = np.zeros((self.k, self.k, self.k), dtype=np.int64)
        for (i, j), vec in presentation.structure_constants.items():
            sc[i, j] = np.array(vec, dtype=np.int64) % df
            sc[j, i] = sc[i, j]
        self._sc = sc
        self.is_zero = self.order == 1
        self._coords_cache: np.ndarray | None = None
        self._structure = None  # ideals.RingStructure, built by ideals.ring_structure

    # unit and zero are built on each use: an Element kept here would refer
    # back to the ring, and a dropped ring would wait for the cycle collector

    @property
    def unit(self) -> Element:
        return Element(self, self.presentation.unit)

    @property
    def zero(self) -> Element:
        return Element(self, (0,) * self.k)

    # -- carrier bookkeeping ------------------------------------------------

    @property
    def _coords(self) -> np.ndarray:
        """All carrier coordinate vectors, shape (order, k), in index order."""
        if self._coords_cache is None:
            idx = np.arange(self.order, dtype=np.int64)
            cols = [(idx // int(self._weights[i])) % int(self._df[i]) for i in range(self.k)]
            self._coords_cache = np.stack(cols, axis=1)
        return self._coords_cache

    def index_of(self, coords) -> int:
        idx = 0
        for c, d, w in zip(coords, self.invariant_factors, self._weights):
            idx += (c % d) * int(w)
        return idx

    def coords_of(self, index: int) -> Coords:
        out = []
        for d in self.invariant_factors:
            out.append(index % d)
            index //= d
        return tuple(out)

    def element(self, coords) -> Element:
        if len(coords) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(coords)}")
        return Element(self, coords)

    def element_at(self, index: int) -> Element:
        if not 0 <= index < self.order:
            raise ValueError("carrier index out of range")
        el = Element(self, self.coords_of(index))
        el._index = index
        return el

    # -- arithmetic ---------------------------------------------------------

    def add(self, x: Element, y: Element) -> Element:
        return Element(self, tuple(a + b for a, b in zip(x.coords, y.coords)))

    def neg(self, x: Element) -> Element:
        return Element(self, tuple(-a for a in x.coords))

    def mul(self, x: Element, y: Element) -> Element:
        return self.element_at(self.mul_idx(x.index, y.index))

    def add_idx(self, i: int, j: int) -> int:
        ci, cj = self.coords_of(i), self.coords_of(j)
        return self.index_of(tuple(a + b for a, b in zip(ci, cj)))

    def mul_idx(self, i: int, j: int) -> int:
        return int(self.mul_coords(self._coords[i], self._coords[j]) @ self._weights)

    def mul_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coordinates of x*y for reduced int64 coordinate vectors.

        Reducing after each product keeps every intermediate below k*d^2,
        where x*y*c would reach d^3 and wrap int64 for large moduli.
        """
        k = self.k
        mat = (x @ self._sc.reshape(k, k * k)).reshape(k, k) % self._df
        return (y @ mat) % self._df

    def diag_rows(self) -> list[list[int]]:
        """Relation rows d_i * e_i of the coordinate lattice."""
        return _diag(self.invariant_factors)

    def add_to_all(self, idx: int, members: np.ndarray) -> np.ndarray:
        """Indices of x + m for every m in ``members`` (vectorized coset shift)."""
        shifted = (self._coords[idx] + self._coords[members]) % self._df
        return shifted @ self._weights

    def __repr__(self) -> str:
        dstr = "x".join(map(str, self.invariant_factors))
        return f"FiniteRing(order={self.order}, additive=Z/{dstr})"


_CONSTRUCTION_TOKEN = object()


def validate_ring(
    presentation: RingPresentation,
    carrier_bound: int = config.CARRIER_BOUND,
    _allow_zero: bool = False,
) -> FiniteRing:
    """Check every ring axiom on the presentation and return the ring.

    Associativity and commutativity are verified on all basis tuples, which
    the bilinear extension propagates to the full carrier; the unit law is
    checked exhaustively on every element.  Raises the specific validation
    error naming the first failing tuple.
    """
    df = presentation.invariant_factors
    k = presentation.rank
    if k == 0 or any(d < 1 for d in df):
        raise IllFormedConstants("invariant factors must be positive")
    for a, b in zip(df, df[1:]):
        if b % a != 0:
            raise IllFormedConstants(f"divisibility chain broken: {a} does not divide {b}")
    if 2 * df[-1] ** 2 >= 2**63:
        raise ValidationError(
            f"invariant factor {df[-1]} too large: int64 arithmetic needs 2*d^2 < 2^63"
        )
    n = presentation.carrier_size
    if n > carrier_bound:
        raise CarrierTooLarge(n, carrier_bound)
    if n == 1 and not _allow_zero:
        raise ZeroRingRejected("the order-1 ring is only produced by make_cyclic(1)")

    sc = {}
    seen = {}
    for (i, j), vec in presentation.structure_constants.items():
        if not (0 <= i < k and 0 <= j < k):
            raise IllFormedConstants(f"basis index out of range in pair ({i},{j})")
        if len(vec) != k:
            raise IllFormedConstants(f"constant for ({i},{j}) has length {len(vec)} != {k}")
        key = (min(i, j), max(i, j))
        norm = tuple(c % d for c, d in zip(vec, df))
        if key in seen and seen[key] != norm:
            raise NotCommutative(f"constants for ({i},{j}) and ({j},{i}) disagree")
        seen[key] = norm
        sc[key] = norm
    if len(presentation.unit) != k:
        raise NoUnit(f"unit vector has length {len(presentation.unit)} != {k}")

    # well-definedness: d_i * (b_i b_j) = d_j * (b_i b_j) = 0 in the group
    for (i, j), vec in sorted(sc.items()):
        for mult in (df[i], df[j]):
            for l, c in enumerate(vec):
                if (mult * c) % df[l] != 0:
                    raise IllFormedConstants(
                        f"b_{i+1}*b_{j+1} has additive order not dividing d_{min(i,j)+1}"
                    )

    canon = RingPresentation(
        invariant_factors=tuple(df),
        structure_constants=sc,
        unit=tuple(c % d for c, d in zip(presentation.unit, df)),
    )
    ring = FiniteRing(canon, _token=_CONSTRUCTION_TOKEN)

    # associativity on all basis triples
    scarr = ring._sc
    dfarr = ring._df
    left = np.einsum("ijm,mln->ijln", scarr, scarr) % dfarr
    right = np.einsum("jlm,imn->ijln", scarr, scarr) % dfarr
    if not np.array_equal(left, right):
        bad = np.argwhere(np.any(left != right, axis=3))[0]
        raise NotAssociative(
            f"(b_{bad[0]+1}*b_{bad[1]+1})*b_{bad[2]+1} != b_{bad[0]+1}*(b_{bad[1]+1}*b_{bad[2]+1})"
        )

    # unit law on every carrier element
    u = np.array(canon.unit, dtype=np.int64)
    prods = ring.mul_coords(u, ring._coords)
    ok = np.all(prods == ring._coords, axis=1)
    if not bool(np.all(ok)):
        first = int(np.argmin(ok))
        raise NoUnit(f"declared unit fails on carrier element {first}")
    return ring


def make_cyclic(n: int, carrier_bound: int = config.CARRIER_BOUND) -> FiniteRing:
    """The ring Z/n.  n = 1 yields the zero ring (permitted only here)."""
    if n < 1:
        raise ValueError("n must be positive")
    pres = RingPresentation(
        invariant_factors=(n,),
        structure_constants={(0, 0): (1 % n,)},
        unit=(1 % n,),
    )
    return validate_ring(pres, carrier_bound=carrier_bound, _allow_zero=(n == 1))


class RingHom:
    """An additive-basis-determined ring homomorphism between finite rings.

    The map is the linear extension of ``images``; validation checks
    well-definedness, the unit, and multiplicativity on basis pairs, which
    bilinearity extends to all carrier pairs.
    """

    def __init__(self, source: FiniteRing, target: FiniteRing, images, section_matrix=None):
        self.source = source
        self.target = target
        self.images = tuple(
            img if isinstance(img, Element) else Element(target, img) for img in images
        )
        if len(self.images) != source.k:
            raise ValidationError("need one image per source basis vector")
        self.matrix = np.array([img.coords for img in self.images], dtype=np.int64)
        self._section = None if section_matrix is None else np.array(section_matrix, dtype=np.int64)
        self._index_map: np.ndarray | None = None
        self._validate()

    def _validate(self):
        s, t = self.source, self.target
        for i in range(s.k):
            scaled = (s.invariant_factors[i] * self.matrix[i]) % t._df
            if np.any(scaled):
                raise ValidationError(f"image of basis {i+1} has too large additive order")
        if self.apply(s.unit) != t.unit:
            raise ValidationError("unit is not preserved")
        for i in range(s.k):
            for j in range(i, s.k):
                lhs = (s._sc[i, j] @ self.matrix) % t._df
                rhs = t.mul_coords(self.matrix[i], self.matrix[j])
                if not np.array_equal(lhs, rhs):
                    raise ValidationError(
                        f"multiplication not preserved on basis pair ({i+1},{j+1})"
                    )

    def apply(self, x: Element) -> Element:
        coords = (np.array(x.coords, dtype=np.int64) @ self.matrix) % self.target._df
        return Element(self.target, tuple(int(c) for c in coords))

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    def index_map(self) -> np.ndarray:
        """Target carrier index for every source carrier index."""
        if self._index_map is None:
            coords = (self.source._coords @ self.matrix) % self.target._df
            self._index_map = coords @ self.target._weights
        return self._index_map

    def kernel_indices(self) -> np.ndarray:
        return np.nonzero(self.index_map() == 0)[0]

    def section(self, y: Element) -> Element:
        """Canonical preimage under the attached section (quotient maps only)."""
        if self._section is None:
            raise ValidationError("this homomorphism carries no section")
        coords = (np.array(y.coords, dtype=np.int64) @ self._section) % self.source._df
        return Element(self.source, tuple(int(c) for c in coords))

    def smallest_preimage(self, y: Element) -> Element:
        """Least carrier element mapping to y (requires a section and the kernel)."""
        base = self.section(y).index
        kernel = self.kernel_indices()
        shifted = self.source.add_to_all(base, kernel)
        return self.source.element_at(int(shifted.min()))

    def __repr__(self) -> str:
        return f"RingHom({self.source!r} -> {self.target!r})"


def canonical_quotient(relations, reducer, mul_vec, unit_vec, carrier_bound):
    """Rebuild (Z^m / relations, mul) as a canonical invariant-factor ring.

    ``relations`` is a full-rank HNF lattice in Z^m.  The Smith normal form
    U * relations * V = D gives the new invariant factors; x -> (x @ V)[kept]
    is the projection and the kept rows of V^-1, reduced modulo the HNF
    lattice ``reducer``, are the section rows (the integer representatives
    of the new basis vectors).  ``mul_vec`` multiplies ambient integer
    vectors exactly.  Returns the validated ring, the projection columns
    (``proj_cols[r][t]``, pre-reduced) and the section rows.
    """
    m = len(relations)
    res = intmat.snf(relations)
    kept = [i for i, d in enumerate(res.diagonal) if d > 1]
    if not kept:
        raise ZeroRingRejected("quotient by the unit ideal is the order-1 ring")
    df_new = tuple(int(res.diagonal[i]) for i in kept)
    proj_cols = [[res.v[r][c] % d for c, d in zip(kept, df_new)] for r in range(m)]
    section_rows = [intmat.lattice_reduce(reducer, res.vinv[c]) for c in kept]

    def proj(vec):
        return project(proj_cols, df_new, vec)

    sc = {}
    for t in range(len(kept)):
        for u in range(t, len(kept)):
            sc[(t, u)] = proj(mul_vec(section_rows[t], section_rows[u]))
    pres = RingPresentation(df_new, sc, proj(unit_vec))
    return validate_ring(pres, carrier_bound=carrier_bound), proj_cols, section_rows


def project(proj_cols, df, vec) -> Coords:
    """Coordinates of ``vec @ proj_cols`` reduced modulo ``df``."""
    return tuple(
        sum(int(vec[r]) * proj_cols[r][t] for r in range(len(proj_cols))) % d
        for t, d in enumerate(df)
    )


def _diag(dvec) -> list[list[int]]:
    return [[d if j == i else 0 for j in range(len(dvec))] for i, d in enumerate(dvec)]


def make_product(
    factors, carrier_bound: int = config.CARRIER_BOUND
) -> tuple[FiniteRing, list[RingHom]]:
    """Componentwise product ring with validated projection homomorphisms."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if any(f.is_zero for f in factors):
        raise ZeroRingRejected("zero ring not accepted as a product factor")
    total = 1
    for f in factors:
        total *= f.order
    if total > carrier_bound:
        raise CarrierTooLarge(total, carrier_bound)

    offsets = []
    dvec = []
    for f in factors:
        offsets.append(len(dvec))
        dvec.extend(f.invariant_factors)

    def mul_vec(a, b):
        out = []
        for f, off in zip(factors, offsets):
            xa = np.array(a[off:off + f.k], dtype=np.int64) % f._df
            xb = np.array(b[off:off + f.k], dtype=np.int64) % f._df
            out.extend(int(c) for c in f.mul_coords(xa, xb))
        return out

    unit_vec = [c for f in factors for c in f.unit.coords]
    diag = _diag(dvec)
    ring, _, section_rows = canonical_quotient(diag, diag, mul_vec, unit_vec, carrier_bound)

    projections = []
    for f, off in zip(factors, offsets):
        images = [Element(f, tuple(row[off:off + f.k])) for row in section_rows]
        projections.append(RingHom(ring, f, images))
    return ring, projections


def make_quotient(ring: FiniteRing, ideal) -> tuple[FiniteRing, RingHom]:
    """Quotient by a validated ideal, plus the projection with that kernel."""
    if ideal.ring is not ring:
        raise ValidationError("ideal does not belong to this ring")
    if ideal.size == ring.order:
        raise ZeroRingRejected("quotient by the unit ideal is the order-1 ring")

    def mul_vec(a, b):
        xa = np.array(a, dtype=np.int64) % ring._df
        xb = np.array(b, dtype=np.int64) % ring._df
        return ring.mul_coords(xa, xb).tolist()

    quotient, proj_cols, section_rows = canonical_quotient(
        ideal.lattice, ring.diag_rows(), mul_vec, list(ring.unit.coords), ring.order
    )
    images = [Element(quotient, row) for row in proj_cols]
    pi = RingHom(ring, quotient, images, section_matrix=section_rows)
    kernel = pi.kernel_indices()
    if len(kernel) != ideal.size or mask_from_indices(ring.order, kernel) != ideal.mask:
        raise ValidationError("projection kernel does not match the ideal")
    return quotient, pi


# -- ring description files -------------------------------------------------


def parse_ring_text(text: str, carrier_bound: int = config.CARRIER_BOUND) -> FiniteRing:
    """Parse the ring description format.

    Lines: ``ring k d_1 ... d_k``, then ``mul i j c_1 ... c_k`` for 1-based
    i <= j (missing pairs mean zero product), then ``one c_1 ... c_k``.
    ``#`` starts a comment.
    """
    k = None
    df = None
    sc = {}
    unit = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "ring":
            if k is not None:
                raise ValidationError(f"line {lineno}: duplicate ring header")
            if len(parts) < 2:
                raise ValidationError(f"line {lineno}: ring header needs a rank")
            k = int(parts[1])
            df = tuple(int(x) for x in parts[2:])
            if len(df) != k:
                raise ValidationError(f"line {lineno}: expected {k} invariant factors")
        elif parts[0] == "mul":
            if k is None:
                raise ValidationError(f"line {lineno}: mul before ring header")
            if len(parts) < 3:
                raise ValidationError(f"line {lineno}: malformed mul line")
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            vec = tuple(int(x) for x in parts[3:])
            if not (0 <= i <= j < k) or len(vec) != k:
                raise ValidationError(f"line {lineno}: malformed mul line")
            sc[(i, j)] = vec
        elif parts[0] == "one":
            unit = tuple(int(x) for x in parts[1:])
        else:
            raise ValidationError(f"line {lineno}: unknown directive {parts[0]!r}")
    if k is None or unit is None:
        raise ValidationError("ring file needs both a ring header and a one line")
    pres = RingPresentation(invariant_factors=df, structure_constants=sc, unit=unit)
    return validate_ring(pres, carrier_bound=carrier_bound)


def format_ring_text(ring: FiniteRing) -> str:
    lines = ["ring %d %s" % (ring.k, " ".join(map(str, ring.invariant_factors)))]
    for i in range(ring.k):
        for j in range(i, ring.k):
            vec = ring._sc[i, j]
            if np.any(vec):
                lines.append(
                    "mul %d %d %s" % (i + 1, j + 1, " ".join(str(int(c)) for c in vec))
                )
    lines.append("one " + " ".join(map(str, ring.unit.coords)))
    return "\n".join(lines) + "\n"
