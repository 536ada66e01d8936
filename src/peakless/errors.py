"""Exceptions shared across the package.

Every size budget goes through one gate, `ResourceLimitError.check`: a
negative cap is a malformed setting (ValueError, exit 2 in the CLI) and a
size past the cap is an exhausted budget (exit 3), both with one message
form.
"""


class ResourceLimitError(RuntimeError):
    """An exact computation was asked to exceed its configured budget."""

    @classmethod
    def check(cls, what, sizes, cap):
        """Raise unless every size is at most cap.

        A negative cap raises ValueError; sizes past the cap raise cls,
        naming all of them, so a subclass call raises that subclass.
        """
        if cap < 0:
            raise ValueError(f"{what} cap must be nonnegative, got {cap}")
        over = [n for n in sizes if n > cap]
        if over:
            raise cls(f"{what} limited to n <= {cap}; out of budget: {over}")


class OracleLimitError(ResourceLimitError):
    """A brute-force request exceeded the configured sequence-length cap."""


class EngineDisagreement(RuntimeError):
    """Two independent engines computed different values for one quantity."""
