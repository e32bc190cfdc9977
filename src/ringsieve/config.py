"""Default bounds and run configuration."""

from dataclasses import dataclass

# Largest carrier a FiniteRing may have.  Every algorithm in the library is
# exhaustive over carriers, cosets or small lattices, so this bound is what
# keeps individual operations in the sub-second range.
CARRIER_BOUND = 4096

# Largest number of shift tuples an exact minimization may scan.
TUPLE_CAP = 10_000_000

# Largest lcm of progression moduli.
PERIOD_CAP = 1_000_000

# Largest rank accepted for an order presentation.
ORDER_RANK_BOUND = 8


@dataclass
class RunConfig:
    """Bounds and output options threaded through the CLI."""

    carrier_bound: int = CARRIER_BOUND
    tuple_cap: int = TUPLE_CAP
    worker_count: int = 1
    output_format: str = "human"  # "human" | "machine"

    def __post_init__(self):
        if self.carrier_bound < 1 or self.tuple_cap < 1:
            raise ValueError("all bounds must be positive")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")
        if self.output_format not in ("human", "machine"):
            raise ValueError(f"unknown output format {self.output_format!r}")
