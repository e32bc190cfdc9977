"""Exception hierarchy shared by all ringsieve modules."""


class RingSieveError(Exception):
    """Base class for all library errors."""


class ValidationError(RingSieveError):
    """A presented structure failed an axiom or well-formedness check."""


class IllFormedConstants(ValidationError):
    """Structure constants are not well defined over the additive group."""


class NotAssociative(ValidationError):
    pass


class NotCommutative(ValidationError):
    pass


class NoUnit(ValidationError):
    pass


class BadUnit(ValidationError):
    pass


class CarrierTooLarge(ValidationError):
    """Carrier size exceeds the configured bound."""

    def __init__(self, size: int, bound: int):
        super().__init__(f"carrier size {size} exceeds bound {bound}")
        self.size = size
        self.bound = bound


class ZeroRingRejected(ValidationError):
    """The order-1 ring is only ever produced by make_cyclic(1)."""


class SearchSpaceTooLarge(RingSieveError):
    """An exhaustive scan would exceed the tuple cap."""

    def __init__(self, required: int, cap: int, at_least: bool = False):
        bound = "at least " if at_least else ""
        super().__init__(f"search space of {bound}{required} tuples exceeds cap {cap}")
        self.required = required
        self.cap = cap


class VerificationFailed(RingSieveError):
    """Re-verification of a computed result (a witness, a decomposition, a
    minimum) disagreed with the result: an internal inconsistency."""


class NotLocal(RingSieveError):
    """Operation requires a local ring."""


class UniqueMinimalIdeal(RingSieveError):
    """The socle is one-dimensional; the witness must be built by lifting."""


class AlreadyChainLocalProduct(RingSieveError):
    """No violating witness exists for this ring."""


class RankDeficient(RingSieveError):
    """Generators span a lattice of deficient rank (zero or degenerate ideal)."""


class NotAnIdeal(RingSieveError):
    """A lattice is not closed under multiplication by the order's basis."""


class PeriodTooLarge(RingSieveError):
    """lcm of progression moduli exceeds the period cap."""

    def __init__(self, period: int, cap: int):
        super().__init__(f"common period {period} exceeds cap {cap}")
        self.period = period
        self.cap = cap
