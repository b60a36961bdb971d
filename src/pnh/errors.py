"""Exception types shared across the package.

Everything raised on purpose derives from PnhError so callers (and the
command line driver) can distinguish our diagnostics from genuine bugs.
"""


class PnhError(Exception):
    """Base class for all package errors."""


class SingularSystem(PnhError):
    """A square linear system has no unique solution."""


class UnsupportedType(PnhError):
    """Root-system type string outside the supported A/B/C/D families."""


class GroupTooLarge(PnhError):
    """Predicted or actual reflection-group order exceeds the cap."""


class TooManyFlats(PnhError):
    """Flat enumeration exceeded its cap."""


class TooManyNestedSets(PnhError):
    """Nested-set enumeration exceeded its cap."""


class NotWInvariant(PnhError):
    """A family of flats is not stable under the reflection group."""


class NotBuilding(PnhError):
    """A family of flats violates the building-set decomposition axiom."""


class MissingV(PnhError):
    """A building set (or nested set) does not contain the full space."""


class NotInChamber(PnhError):
    """A computed point fails the strict fundamental-chamber inequalities."""


class LemmaViolated(PnhError):
    """An epsilon list fails a required separation inequality.

    Carries the offending instance in ``witness``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class VerificationFailed(PnhError):
    """A geometric/combinatorial cross-check found a discrepancy.

    ``report`` holds the full report object when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class EmptyFacet(PnhError):
    """A defining half-space touches no vertex."""


class NotCrossingFacet(PnhError):
    """Facet factorisation requested for a face that is not a crossing facet."""


class BuildingNotInvariant(PnhError):
    """A symmetry does not preserve the chosen building set."""


class OutOfRange(PnhError):
    """Numeric argument outside the domain of a counting formula."""
