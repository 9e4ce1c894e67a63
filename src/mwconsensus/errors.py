"""Exception types shared across the package."""


class MwcError(Exception):
    """Base class for all mwconsensus errors."""


class InvalidMatrix(MwcError):
    """Matrix input is malformed (non-finite entries)."""


class UnsupportedWeight(MwcError):
    """Operation requires a sign-definite matrix but got an indefinite one."""


class NotPSD(MwcError):
    """Matrix has an eigenvalue below the negative tolerance band."""


class AssumptionViolated(MwcError):
    """A structural assumption required by the requested operation fails."""


class GraphFormatError(MwcError):
    """Graph or scenario document failed validation at load time."""


class InvalidScenario(MwcError):
    """Scenario failed pre-run validation; carries the full violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class Diverged(MwcError):
    """State norm exceeded the divergence guard during simulation.

    ``partial_record`` holds everything recorded up to (and including) the
    last finite step, so callers can flush diagnostics.
    """

    def __init__(self, message, partial_record=None):
        self.partial_record = partial_record
        super().__init__(message)
