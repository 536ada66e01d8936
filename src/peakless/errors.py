"""Exceptions shared across the package."""


class OracleLimitError(RuntimeError):
    """A brute-force request exceeded the configured sequence-length cap."""


class ResourceLimitError(RuntimeError):
    """An exact computation was asked to exceed its configured budget."""


class EngineDisagreement(RuntimeError):
    """Two independent engines computed different values for one quantity."""
