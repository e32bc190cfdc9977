"""Exact densities of unions of shifted arithmetic progressions.

A union of progressions a_j + q_j Z is periodic with period lcm(q_j), so
its density is the exact rational (covered residues) / period.  The
minimization over shifts fixes a_1 = 0 and scans the remaining residues
with the same tuple order and first-minimizer rule as the ring engine.
Floating point never appears here.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def _progression_mask(period: int, shift: int, modulus: int) -> int:
    buf = np.zeros(period, dtype=np.uint8)
    buf[shift % modulus :: modulus] = 1
    return int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")


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
    mask = 0
    for p in progressions:
        mask |= _progression_mask(period, p.shift, p.modulus)
    covered = mask.bit_count()
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
    """
    moduli = [int(q) for q in moduli]
    if not moduli or any(q < 1 for q in moduli):
        raise ValueError("moduli must be positive")
    period = lcm(*moduli)
    if period > period_cap:
        raise PeriodTooLarge(period, period_cap)
    total = 1
    for q in moduli[1:]:
        total *= q
    if total > tuple_cap:
        raise SearchSpaceTooLarge(total, tuple_cap)

    shift_masks = [[_progression_mask(period, s, q) for s in range(q)] for q in moduli[1:]]
    base = _progression_mask(period, 0, moduli[0])
    best_val, digits = min_union_scan(base, shift_masks, workers)
    shifts = (0,) + digits
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
        witness_shifts=shifts,
    )
