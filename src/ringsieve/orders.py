"""Orders presented by integral multiplication tables, and their finite quotients.

An order here is any rank-n commutative unital ring over Z given by the
products of its basis vectors (b_1 = 1 by convention).  Ideals appear as
full-rank sublattices of the coordinate lattice in canonical row Hermite
form, finite quotients are built through the Smith normal form, and the
shift-minimization question for order ideals is answered inside the
quotient by their intersection.

All arithmetic in this module is arbitrary-precision; numpy never touches
these matrices because SNF intermediates can exceed any fixed width.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial

from . import config, intmat
from .errors import (
    BadUnit,
    NotAnIdeal,
    NotAssociative,
    NotCommutative,
    RankDeficient,
    ValidationError,
    VerificationFailed,
)
from .ideals import Ideal, ideal_generated
from .localstruct import classify
from .rings import Element, FiniteRing, canonical_quotient, project
from .rogers import RogersReport, Witness, _witness_from_verdict, rogers_check

Vec = tuple[int, ...]


@dataclass(frozen=True)
class OrderPresentation:
    """Rank and basis products; table keys (i, j) are 0-based with
    1 <= i <= j (products involving b_0 = 1 are implied)."""

    rank: int
    table: dict[tuple[int, int], Vec] = field(default_factory=dict)


class IntegerLattice:
    """Full-rank sublattice of Z^n in canonical row Hermite normal form."""

    __slots__ = ("basis", "n")

    def __init__(self, basis):
        self.basis = tuple(tuple(int(x) for x in row) for row in basis)
        self.n = len(self.basis)
        for i, row in enumerate(self.basis):
            if len(row) != self.n or row[i] <= 0 or any(row[j] for j in range(i)):
                raise ValidationError("basis is not an upper-triangular HNF")

    @classmethod
    def from_rows(cls, rows, n: int) -> "IntegerLattice":
        return cls(intmat.hnf_full_rank(rows, n))

    @property
    def index(self) -> int:
        """[Z^n : L], the product of the pivots."""
        return intmat.lattice_det(self.basis)

    def contains(self, vec) -> bool:
        return intmat.lattice_contains(self.basis, vec)

    def reduce(self, vec) -> Vec:
        """Canonical representative of vec modulo the lattice."""
        return intmat.lattice_reduce(self.basis, vec)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerLattice) and other.basis == self.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"IntegerLattice({self.basis})"


class Order:
    """A validated order; multiplication is exact over Z."""

    def __init__(self, presentation: OrderPresentation, table_full):
        self.presentation = presentation
        self.rank = presentation.rank
        self._table = table_full  # [i][j] -> coordinate list of b_i * b_j
        self.basis = tuple(tuple(int(l == t) for l in range(self.rank)) for t in range(self.rank))
        self.one = self.basis[0]

    def basis_product(self, i: int, j: int) -> Vec:
        return tuple(self._table[i][j])

    def mul(self, a, b) -> Vec:
        n = self.rank
        out = [0] * n
        for i in range(n):
            ai = int(a[i])
            if ai == 0:
                continue
            for j in range(n):
                bj = int(b[j])
                if bj == 0:
                    continue
                prod = self._table[i][j]
                c = ai * bj
                for l in range(n):
                    out[l] += c * prod[l]
        return tuple(out)

    def __repr__(self) -> str:
        return f"Order(rank={self.rank})"


def validate_order(
    presentation: OrderPresentation, rank_bound: int = config.ORDER_RANK_BOUND
) -> Order:
    """Exact commutativity/associativity checks on all basis tuples."""
    n = presentation.rank
    if not 1 <= n <= rank_bound:
        raise ValidationError(f"rank must be between 1 and {rank_bound}")
    table = [[None] * n for _ in range(n)]
    for j in range(n):
        table[0][j] = [1 if l == j else 0 for l in range(n)]
        table[j][0] = table[0][j]
    for (i, j), vec in presentation.table.items():
        if not (0 <= i < n and 0 <= j < n) or len(vec) != n:
            raise ValidationError(f"malformed table entry for ({i},{j})")
        vec = [int(x) for x in vec]
        if i == 0 or j == 0:
            if vec != table[i][j]:
                raise BadUnit("products with b_1 must be the identity")
            continue
        for spot in ((i, j), (j, i)):
            if table[spot[0]][spot[1]] is not None and table[spot[0]][spot[1]] != vec:
                raise NotCommutative(f"entries for ({i+1},{j+1}) and ({j+1},{i+1}) disagree")
        table[i][j] = vec
        table[j][i] = vec
    for i in range(1, n):
        for j in range(1, n):
            if table[i][j] is None:
                raise ValidationError(f"missing product b_{i+1}*b_{j+1}")
    order = Order(presentation, table)
    basis = order.basis
    for i in range(n):
        for j in range(n):
            for l in range(n):
                left = order.mul(order.mul(basis[i], basis[j]), basis[l])
                right = order.mul(basis[i], order.mul(basis[j], basis[l]))
                if left != right:
                    raise NotAssociative(
                        f"(b_{i+1}*b_{j+1})*b_{l+1} != b_{i+1}*(b_{j+1}*b_{l+1})"
                    )
    return order


def discriminant(order: Order) -> int:
    """disc(O) = det(Tr(b_i b_j)), with Tr(b_k) the diagonal sum of the
    multiplication by b_k.  The sign needs elimination over Q: a lattice,
    and so the Gram matrix's HNF, fixes |det| but no orientation."""
    n, table = order.rank, order._table
    traces = [sum(table[k][i][i] for i in range(n)) for k in range(n)]
    rows = [[Fraction(sum(c * t for c, t in zip(table[i][j], traces))) for j in range(n)]
            for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return 0
        rows[c], rows[pivot] = rows[pivot], rows[c]
        det *= rows[c][c] if pivot == c else -rows[c][c]
        for r in range(c + 1, n):
            q = rows[r][c] / rows[c][c]
            rows[r] = [x - q * y for x, y in zip(rows[r], rows[c])]
    return int(det)


def _p_maximal(order: Order, p: int) -> bool:
    """True iff the order is p-maximal, for disc(O) != 0 (Pohst-Zassenhaus;
    Cohen, GTM 138, Thm 6.1.3 and Alg. 6.1.8).

    The radical I_p of pO is the kernel of the F_p-linear x -> x^q on O/pO,
    q = p^j >= n.  (I_p : I_p) = (1/p){x : x I_p <= p I_p} equals O iff
    x -> (y -> xy on I_p/pI_p) has rank n over F_p; integer rows of length
    m and rank r over F_p, stacked on p*I_m, span a lattice of index p^(m - r).
    """
    n, q = order.rank, p
    while q < n:
        q *= p
    powers = []
    for b in order.basis:
        x = b
        for _ in range(q - 1):
            x = tuple(c % p for c in order.mul(x, b))
        powers.append(list(x))
    radical = intmat.hnf_full_rank([u[:n] for u in intmat.kernel(powers + _diagonal(p, n))], n)
    rows = []
    for b in order.basis:
        row = []
        for v in radical:  # coordinates of b * v in the radical's basis, mod p
            w = list(order.mul(b, v))
            for i, r in enumerate(radical):
                c, rem = divmod(w[i], r[i])
                if rem:
                    raise VerificationFailed(f"the radical of {p}O is not an ideal")
                w = [a - c * e for a, e in zip(w, r)]
                row.append(c % p)
        rows.append(row)
    m = n * n
    return intmat.lattice_det(intmat.hnf_full_rank(rows + _diagonal(p, m), m)) == p ** (m - n)


def _diagonal(p: int, n: int) -> list[list[int]]:
    return [[p * int(i == j) for j in range(n)] for i in range(n)]


def order_ideal(order: Order, gens) -> IntegerLattice:
    """Lattice of the ideal generated by integer vectors (module closure).

    Spanned by all g * b_i; rank deficiency means the zero ideal or a
    degenerate presentation and is rejected.
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    if not gens:
        raise RankDeficient("need at least one generator")
    rows = [list(order.mul(g, b)) for g in gens for b in order.basis]
    try:
        return IntegerLattice.from_rows(rows, order.rank)
    except RankDeficient:
        raise RankDeficient("generators span a rank-deficient lattice (zero ideal)")


def lattice_intersect(l1: IntegerLattice, l2: IntegerLattice) -> IntegerLattice:
    return IntegerLattice(intmat.lattice_intersect(l1.basis, l2.basis, l1.n))


class OrderProjection:
    """Coordinate projection from an order onto a finite quotient ring."""

    def __init__(self, order: Order, lattice: IntegerLattice, ring: FiniteRing,
                 proj_cols, section_rows):
        self.order = order
        self.lattice = lattice
        self.ring = ring
        self._proj_cols = proj_cols  # [ambient_coord][new_coord], pre-reduced
        self._section_rows = section_rows

    def __call__(self, vec) -> Element:
        return Element(self.ring, project(self._proj_cols, self.ring.invariant_factors, vec))

    def section(self, el: Element) -> Vec:
        """Canonical integer lift of a quotient element."""
        n = self.order.rank
        vec = [0] * n
        for t, c in enumerate(el.coords):
            row = self._section_rows[t]
            for r in range(n):
                vec[r] += c * row[r]
        return self.lattice.reduce(vec)

    def push_lattice(self, sub: IntegerLattice) -> Ideal:
        """Image of an ideal lattice containing the kernel lattice: the ideal
        its projected basis generates.  That ideal has [sub : kernel] elements
        exactly when ``sub`` is an ideal containing the kernel."""
        image = ideal_generated(self.ring, [self(row) for row in sub.basis])
        if image.size * sub.index != self.lattice.index:
            raise VerificationFailed(f"{sub} is not an ideal lattice over the kernel")
        return image


def order_quotient(
    order: Order,
    lattice: IntegerLattice,
    carrier_bound: int = config.CARRIER_BOUND,
) -> tuple[FiniteRing, OrderProjection]:
    """Finite quotient ring of the order by an ideal lattice.

    The lattice must be closed under multiplication by the order's basis
    (i.e. actually be an ideal).  The quotient's additive group is read off
    the Smith normal form; multiplication is transported through the
    unimodular change of basis, and the result passes full ring validation.
    """
    for row in lattice.basis:
        for b in order.basis[1:]:
            if not lattice.contains(order.mul(row, b)):
                raise NotAnIdeal(f"lattice row {row} times basis {b} escapes the lattice")
    ring, proj_cols, section_rows = canonical_quotient(
        lattice.basis, lattice.basis, order.mul, order.one, carrier_bound
    )
    return ring, OrderProjection(order, lattice, ring, proj_cols, section_rows)


def push_to_quotient(order: Order, ideal_gen_lists, carrier_bound: int = config.CARRIER_BOUND):
    """Common setup: ideal lattices, their intersection H, the quotient
    ring with projection, and the image ideals."""
    lattices = [order_ideal(order, gens) for gens in ideal_gen_lists]
    common = lattices[0]
    for lat in lattices[1:]:
        common = lattice_intersect(common, lat)
    ring, proj = order_quotient(order, common, carrier_bound)
    images = tuple(proj.push_lattice(lat) for lat in lattices)
    return lattices, common, ring, proj, images


def rogers_check_order(
    order: Order,
    ideal_gen_lists,
    shifts=None,
    tuple_cap: int = config.TUPLE_CAP,
    workers: int = 1,
    carrier_bound: int = config.CARRIER_BOUND,
) -> RogersReport:
    """Shift minimization for order ideals, computed in O/(I_1 n ... n I_r).

    Every generator list must span a full-rank (nonzero) ideal; the
    intersection of nonzero ideals in an order is again full rank, so the
    quotient is finite and the finite-ring engine applies verbatim.
    """
    _, _, ring, proj, images = push_to_quotient(order, ideal_gen_lists, carrier_bound)
    shift_els = None
    if shifts is not None:
        shift_els = tuple(proj(vec) for vec in shifts)
    return rogers_check(ring, images, shifts=shift_els, tuple_cap=tuple_cap, workers=workers)


@dataclass(frozen=True)
class ProbeWitness:
    """A conductor at which the order fails the chain-local-product test,
    with the lifted and re-verified violating ideals."""

    conductor: int
    quotient: FiniteRing
    quotient_witness: Witness
    ideal_generators: tuple[tuple[Vec, ...], ...]
    shifts: tuple[Vec, ...]
    report: RogersReport


def nonmaximality_probe(order: Order, bound: int, tuple_cap: int = config.TUPLE_CAP,
                        carrier_bound: int = config.CARRIER_BOUND) -> ProbeWitness | None:
    """Scan quotients O/(n), 2 <= n <= bound, for a non-chain local factor.

    O/nO is the product of the O/p^e O over the prime powers p^e exactly
    dividing n (Chinese remainder theorem), so the first failing n is a
    prime power.  A local factor of O/p^2 O at P with a principal maximal
    ideal makes O_P a DVR (Nakayama), so O/p^e O is chain at P for every e:
    only p and p^2 can fail first, and they do iff O is not p-maximal,
    which needs p^2 | disc(O).  Only those n are classified (for every p
    when disc(O) = 0), and the scan stops at the same conductor as a scan
    over every n.  An n whose quotient exceeds the carrier bound is still
    built, so the scan ends in the same error there.

    On the first hit, builds the violating triple in the quotient, lifts
    the ideals back to the order (witness generators' lifts plus n times
    the basis) and re-verifies through the order-level check.  Returns
    None when every quotient up to the bound passes.
    """
    if bound < 2:
        raise ValueError("probe bound must be at least 2")
    n = order.rank
    disc = discriminant(order)
    p_maximal = cache(partial(_p_maximal, order))
    for conductor in range(2, bound + 1):
        p = next(q for q in range(2, conductor + 1) if conductor % q == 0)
        if conductor ** n <= carrier_bound and (
                conductor not in (p, p * p) or disc % (p * p) or disc and p_maximal(p)):
            continue
        principal = order_ideal(order, [tuple(conductor if l == 0 else 0 for l in range(n))])
        ring, proj = order_quotient(order, principal, carrier_bound)
        verdict = classify(ring)
        if verdict.is_chain_local_product:
            if conductor == p * p and disc and not p_maximal(p):
                raise VerificationFailed(f"O/{conductor}O is a chain-local product, "
                                         f"but O is not {p}-maximal")
            continue
        witness = _witness_from_verdict(verdict)
        lifted_gens = []
        for ideal in witness.ideals:
            gens = [proj.section(g) for g in ideal.generators]
            gens += [tuple(conductor * x for x in b) for b in order.basis]
            lifted_gens.append(tuple(gens))
        lifted_shifts = tuple(proj.section(s) for s in witness.shifts)
        report = rogers_check_order(order, lifted_gens, shifts=lifted_shifts,
                                    tuple_cap=tuple_cap, carrier_bound=carrier_bound)
        if report.satisfied:
            raise VerificationFailed("lifted witness failed re-verification")
        return ProbeWitness(
            conductor=conductor,
            quotient=ring,
            quotient_witness=witness,
            ideal_generators=tuple(lifted_gens),
            shifts=lifted_shifts,
            report=report,
        )
    return None


def parse_order_text(text: str, rank_bound: int = config.ORDER_RANK_BOUND) -> Order:
    """Parse the order description format.

    Lines: ``order n`` then ``mul i j c_1 ... c_n`` for 1-based
    2 <= i <= j <= n; products involving b_1 are implied.  ``#`` comments.
    """
    rank = None
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "order":
            if rank is not None:
                raise ValidationError(f"line {lineno}: duplicate order header")
            if len(parts) < 2:
                raise ValidationError(f"line {lineno}: order header needs a rank")
            rank = int(parts[1])
        elif parts[0] == "mul":
            if rank is None:
                raise ValidationError(f"line {lineno}: mul before order header")
            if len(parts) < 3:
                raise ValidationError(f"line {lineno}: malformed mul line")
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            vec = tuple(int(x) for x in parts[3:])
            if not (1 <= i <= j < rank) or len(vec) != rank:
                raise ValidationError(f"line {lineno}: malformed mul line")
            table[(i, j)] = vec
        else:
            raise ValidationError(f"line {lineno}: unknown directive {parts[0]!r}")
    if rank is None:
        raise ValidationError("order file needs an order header")
    return validate_order(OrderPresentation(rank=rank, table=table), rank_bound=rank_bound)


def format_order_text(order: Order) -> str:
    lines = [f"order {order.rank}"]
    for i in range(1, order.rank):
        for j in range(i, order.rank):
            vec = order.basis_product(i, j)
            lines.append("mul %d %d %s" % (i + 1, j + 1, " ".join(map(str, vec))))
    return "\n".join(lines) + "\n"
