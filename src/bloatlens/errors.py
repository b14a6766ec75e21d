"""Exception types shared across the toolkit."""


class BloatlensError(Exception):
    """Base class for all toolkit errors."""


class IngestError(BloatlensError):
    """A container filesystem could not be read (bad root, malformed tar)."""


class ContractViolation(BloatlensError):
    """An operation was called with arguments that violate its contract."""


class MaterializeError(BloatlensError):
    """A retained file could not be copied out of the source image."""


class VulnReportError(BloatlensError):
    """A vulnerability report is not JSON or does not match the documented schema."""

    flag = "--vuln-report"


class InputError(BloatlensError):
    """Bad or missing pipeline input. Carries the CLI flag it relates to."""

    def __init__(self, message: str, flag: str | None = None):
        super().__init__(message)
        self.flag = flag
