"""Exceptions, budgets and the agreement check shared across the package.

Every size goes through two gates, each with one message form.  The lower
one, `check_sizes`, rejects a size below its domain (a negative length,
bound, end level or order, a report length below 1) with ValueError,
exit 2 in the CLI.  The upper one, `ResourceLimitError.check`, holds a
size to its budget: a size past the cap is an exhausted budget (exit 3),
and the cap itself passes the lower gate first, so a negative cap is a
malformed setting (exit 2).  The default budgets live here too: the
brute-force length cap (`DEFAULT_ORACLE_CAP`, overridden by the
`ORACLE_CAP_ENV` variable, read in `paths`) and the largest n of each
convergence report (`REPORT_CAPS`).  Two routes to one sequence are
compared by `check_agreement`, the one place that raises
`EngineDisagreement` (exit 1); the checks of both engine modules,
`counting` and `bounded`, meet a second engine over the first
`CROSS_CHECK_LIMIT` + 1 terms of a printed sequence, so neither module
loads the other to read it.  This module
imports nothing, so the CLI reads its option defaults without loading an
engine.
"""

DEFAULT_ORACLE_CAP = 16
ORACLE_CAP_ENV = "PEAKLESS_ORACLE_CAP"

# default budget (largest n) for each report kind; see convergence_report
REPORT_CAPS = {"count": 10_000, "avg_height": 500}

MISMATCHES_SHOWN = 5  # a disagreement lists at most this many indices
CROSS_CHECK_LIMIT = 200  # printed sequences meet a second engine up to here


def check_sizes(what, sizes, least=0):
    """Raise ValueError at the first size below least, naming it.

    The message reads "<what> must be nonnegative, got <v>" for least 0
    and "<what> must be at least <least>, got <v>" otherwise.
    """
    for n in sizes:
        if n < least:
            floor = f"at least {least}" if least else "nonnegative"
            raise ValueError(f"{what} must be {floor}, got {n}")


class ResourceLimitError(RuntimeError):
    """An exact computation was asked to exceed its configured budget."""

    @classmethod
    def check(cls, what, sizes, cap):
        """Raise unless every size is at most cap.

        A negative cap raises ValueError from `check_sizes`; sizes past the
        cap raise cls, naming all of them, so a subclass call raises that
        subclass.
        """
        check_sizes(f"{what} cap", [cap])
        over = [n for n in sizes if n > cap]
        if over:
            raise cls(f"{what} limited to n <= {cap}; out of budget: {over}")


class OracleLimitError(ResourceLimitError):
    """A brute-force request exceeded the configured sequence-length cap."""


class EngineDisagreement(RuntimeError):
    """Two independent engines computed different values for one quantity."""


def check_agreement(names, first, second, where="", start=0, index="n"):
    """Raise EngineDisagreement unless two routes give the same sequence.

    `names` labels the two routes; the message counts the indices that
    differ and shows both values at the first few, numbering the terms
    from `index` = `start` (a length n unless the caller names another
    index).  Sequences of unequal length disagree too.
    """
    first, second = list(first), list(second)
    if len(first) != len(second):
        raise EngineDisagreement(
            f"engine disagreement{where}: {names[0]} has {len(first)} terms, "
            f"{names[1]} {len(second)}"
        )
    bad = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    if bad:
        shown = "; ".join(
            f"{index}={start + i}: {names[0]} {first[i]}, {names[1]} {second[i]}"
            for i in bad[:MISMATCHES_SHOWN]
        )
        raise EngineDisagreement(
            f"engine disagreement{where}: {len(bad)} mismatching terms, first {shown}"
        )
