"""Exception hierarchy shared by all pappuslab modules."""


class PappusLabError(Exception):
    """Base class for all library errors."""


class SingularMatrix(PappusLabError):
    pass


class ComplexSpectrum(PappusLabError):
    """The characteristic cubic has a pair of non-real roots."""


class CoincidentPoints(PappusLabError):
    pass


class CoincidentLines(PappusLabError):
    pass


class InvalidModuli(PappusLabError):
    pass


class DegenerateBox(PappusLabError):
    pass


class DegenerateConfiguration(PappusLabError):
    pass


class NotConvex(PappusLabError):
    pass


class NotAFareyEdge(PappusLabError):
    pass


class NotInSubgroupO(PappusLabError):
    pass


class InternalInconsistency(PappusLabError):
    """Two criteria that must agree (by theory) disagreed; a self-test failure."""


class OutsideDomain(PappusLabError):
    pass


class NotNested(PappusLabError):
    pass


class NonLoxodromic(PappusLabError):
    pass


class NoConvergence(PappusLabError):
    pass


class ToleranceBelowPrecision(PappusLabError):
    """A stopping tolerance at or below the rounding noise of the working precision."""


class PrecisionMismatch(PappusLabError):
    """A value built at one working precision used at another."""


class NotInRegionInterior(PappusLabError):
    pass


class NoBracket(PappusLabError):
    pass


class SpecialBox(PappusLabError):
    pass


class NoSolution(PappusLabError):
    pass


class AmbiguousS(PappusLabError):
    """The symmetric-intertwiner nullspace has dimension two or more."""

    def __init__(self, basis):
        super().__init__("intertwiner nullspace is %d-dimensional" % len(basis))
        self.basis = basis


class NotARotation(PappusLabError):
    pass


class OutsideRegion(PappusLabError):
    pass
