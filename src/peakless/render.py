"""The csv, json and text output rules shared by every CLI subcommand.

A subcommand computes its data once and returns an `Output`; `render`
builds only the requested format from it.  csv is a header line and one
line per row, cells joined by commas as `str()` gives them; json is
sorted, two-space indented and newline-terminated.  Both are byte-stable
for identical flags.  Text is for humans and is built by a callable, so
no request pays for a format it did not ask for.
"""
import json
import sys
from typing import Callable, Iterable, NamedTuple


class Output(NamedTuple):
    """What a subcommand prints, in each format it supports, and its exit code."""

    text: Callable[[], str] | None = None
    payload: object = None  # json
    header: tuple = ()  # csv column names
    rows: Iterable = ()  # csv cells, one sequence per line; iterated once
    code: int = 0


def csv_text(header, rows):
    """A header line, then one line of comma-joined `str()` cells per row."""
    return "\n".join([",".join(map(str, row)) for row in (header, *rows)]) + "\n"


def json_text(payload):
    """Sorted, two-space indented json with a trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render(output, fmt):
    """The bytes of `output` in format `fmt` ("text", "csv" or "json").

    Exact counts can run past Python's int-to-str digit limit (4300 digits
    by default, m(n) for n > ~10 290), so the limit is lifted while the
    program's own integers are rendered and restored afterwards.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            return json_text(output.payload)
        if fmt == "csv":
            return csv_text(output.header, output.rows)
        return output.text()
    finally:
        sys.set_int_max_str_digits(limit)
