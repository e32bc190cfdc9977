"""ringsieve: shift-minimization (sieving) checks for finite commutative
rings and for orders over Z, plus exact progression densities.

The central decision: given ideals I_1, ..., I_r, can shifts a_j ever make
|union (a_j + I_j)| smaller than |union I_j|?  The library answers by
exhaustive minimization, classifies exactly which rings never shrink
(products of chain local rings), and constructs verified witnesses for
all the others.
"""

from .config import RunConfig
from .errors import (
    AlreadyChainLocalProduct,
    BadUnit,
    CarrierTooLarge,
    IllFormedConstants,
    NoUnit,
    NotAnIdeal,
    NotAssociative,
    NotCommutative,
    NotLocal,
    PeriodTooLarge,
    RankDeficient,
    RingSieveError,
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
    ideal_intersect,
    ideal_product,
    ideal_sum,
    lattice_op,
    minimal_ideals,
    zero_ideal,
)
from .intmat import SnfResult, hnf, snf
from .localstruct import (
    ClassificationVerdict,
    LocalDecomposition,
    classify,
    idempotents,
    is_local,
    local_decomposition,
    primitive_idempotents,
)
from .orders import (
    IntegerLattice,
    Order,
    OrderPresentation,
    ProbeWitness,
    lattice_intersect,
    nonmaximality_probe,
    order_ideal,
    order_quotient,
    parse_order_text,
    rogers_check_order,
    validate_order,
)
from .rings import (
    Element,
    FiniteRing,
    RingHom,
    RingPresentation,
    make_cyclic,
    make_product,
    make_quotient,
    parse_ring_text,
    validate_ring,
)
from .rogers import (
    RogersReport,
    Witness,
    counterexample,
    rogers_check,
    socle_witness,
    theorem2_verify,
)
from .sieve import DensityReport, Progression, rogers_min_density, union_density

__version__ = "0.1.0"
