"""Exact densities of unions of shifted arithmetic progressions.

A union of progressions a_j + q_j Z is periodic with period lcm(q_j), so
its density is the exact rational (covered residues) / period.  The
minimization over shifts fixes a_1 = 0 and scans the remaining residues
with the same tuple order and first-minimizer rule as the ring engine.
Floating point never appears here.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as np

from . import config
from .bitset import min_union_scan
from .errors import PeriodTooLarge, SearchSpaceTooLarge, VerificationFailed


@dataclass(frozen=True)
class Progression:
    """The set shift + modulus * Z, stored with the shift reduced."""

    shift: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "shift", self.shift % self.modulus)


@dataclass(frozen=True)
class DensityReport:
    density: Fraction
    period: int
    residues: int
    min_density: Fraction | None = None
    witness_shifts: tuple[int, ...] | None = None


def union_density(progressions, period_cap: int = config.PERIOD_CAP) -> DensityReport:
    """Exact density of a union, by marking residues modulo the lcm."""
    progressions = [
        p if isinstance(p, Progression) else Progression(*p) for p in progressions
    ]
    if not progressions:
        raise ValueError("need at least one progression")
    period = lcm(*(p.modulus for p in progressions))
    if period > period_cap:
        raise PeriodTooLarge(period, period_cap)
    marked = np.zeros(period, dtype=bool)
    for p in progressions:
        marked[p.shift :: p.modulus] = True
    covered = int(np.count_nonzero(marked))
    return DensityReport(
        density=Fraction(covered, period),
        period=period,
        residues=covered,
    )


def rogers_min_density(
    moduli,
    tuple_cap: int = config.TUPLE_CAP,
    period_cap: int = config.PERIOD_CAP,
    workers: int = 1,
) -> DensityReport:
    """Exact minimum of the union density over all shift tuples.

    a_1 is pinned to 0; a_j ranges over 0..q_j-1.  The minimum can never
    drop below the zero-shift density (that is the point of the whole
    computation), and the function checks that equality before returning.
    ``workers`` is accepted and changes nothing: the scan runs in one thread.
    """
    moduli = [int(q) for q in moduli]
    if not moduli or any(q < 1 for q in moduli):
        raise ValueError("moduli must be positive")
    period = lcm(*moduli)
    if period > period_cap:
        raise PeriodTooLarge(period, period_cap)
    total = prod(moduli[1:])
    if total > tuple_cap:
        raise SearchSpaceTooLarge(total, tuple_cap)

    carrier = np.arange(period, dtype=np.int32)
    labels = [carrier % q for q in moduli[1:]]
    best_val, digits = min_union_scan(carrier % moduli[0] == 0, labels, moduli[1:])
    zero_val = union_density([Progression(0, q) for q in moduli], period_cap).residues
    if best_val != zero_val:
        raise VerificationFailed(
            f"minimum {best_val} differs from zero-shift value {zero_val}; "
            "this contradicts the shift inequality over Z"
        )
    return DensityReport(
        density=Fraction(zero_val, period),
        period=period,
        residues=zero_val,
        min_density=Fraction(best_val, period),
        witness_shifts=(0,) + digits,
    )
