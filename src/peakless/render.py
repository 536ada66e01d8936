"""The csv, json and text output rules shared by every CLI subcommand.

A subcommand computes its data once and returns an `Output`; `render`
builds only the requested format from it.  csv is a header line and one
line per row, cells joined by commas as `str()` gives them; json is
sorted, two-space indented and newline-terminated.  Both are byte-stable
for identical flags.  Text and json are built by callables, so no request
pays, in time or memory, for a format it did not ask for.

Exact counts print in full.  `count` hands over its terms as exact
`Decimal`s, whose `str()` is linear in the digits, so its csv and text
are linear in their length and `json_numbers` writes its json, which
`json.dumps` would refuse.  Every other payload goes through `json_text`.
"""
import json
import sys
from itertools import chain
from typing import Callable, Iterable, NamedTuple


class Output(NamedTuple):
    """What a subcommand prints, in each format it supports, and its exit code."""

    text: Callable[[], str] | None = None
    json: Callable[[], str] | None = None
    header: tuple = ()  # csv column names
    rows: Iterable = ()  # csv cells, one sequence per line; iterated once
    code: int = 0


def csv_text(header, rows):
    """A header line, then one line of comma-joined `str()` cells per row."""
    return "\n".join([",".join(map(str, row)) for row in chain([header], rows)]) + "\n"


def json_text(payload):
    """Sorted, two-space indented json with a trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def json_numbers(payload):
    """`json_text(payload)` for a dict of numbers and nonempty lists of them.

    Numbers are written as `str()` gives them, so exact integer Decimals,
    which `json.dumps` rejects, print like the ints they equal.
    """

    def chunks():
        for i, key in enumerate(sorted(payload)):
            yield ("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": "
            value = payload[key]
            if isinstance(value, list):
                yield "[\n    "
                yield ",\n    ".join(map(str, value))
                yield "\n  ]"
            else:
                yield str(value)
        yield "\n}\n"

    return "".join(chunks())


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
            return output.json()
        if fmt == "csv":
            return csv_text(output.header, output.rows)
        return output.text()
    finally:
        sys.set_int_max_str_digits(limit)
