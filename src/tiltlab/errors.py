"""Shared exception types."""


class TiltlabError(Exception):
    """Base class for all library errors."""


class NoSolution(TiltlabError):
    """A linear system has no solution."""


class NotAdmissible(TiltlabError):
    """Path enumeration did not terminate within the configured length bound."""


class FieldTooSmall(TiltlabError):
    """The prime modulus is not larger than an endomorphism algebra dimension."""


class RandomBudgetExhausted(TiltlabError):
    """A randomized search ran out of retries."""


class ResolutionDepthExceeded(TiltlabError):
    """A projective resolution exceeded the configured size budget."""


class WindowViolation(TiltlabError):
    """A complex has terms outside the degree window required by an operation."""


class HomologyOutsideWindow(TiltlabError):
    """A complex carries nonzero homology outside the extended-heart window."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"nonzero homology in degree {degree}")


class PoolConstructionUnsupported(TiltlabError):
    """The clique-method candidate pool is only built for hereditary input."""


class BudgetExceeded(TiltlabError):
    """An enumeration or search exceeded its configured budget."""


class UndecidedIso(TiltlabError):
    """An isomorphism test could neither certify nor refute within budget."""


class SpecError(TiltlabError):
    """An input description (JSON algebra spec, CLI arguments) is invalid."""


class Mismatch(TiltlabError):
    """Two independent computations of the same answer disagree: a bug."""
