"""The csv, json and text output rules shared by every CLI subcommand.

A subcommand computes and checks its data once and returns an `Output`;
`render` formats only the requested format from it, as an iterable of
text chunks of about CHUNK characters that the CLI writes one by one.  So
a request holds its data and one chunk, never its whole output.  csv is a
header line and one line per row, cells joined by commas as `str()` gives
them; json is sorted, two-space indented and newline-terminated.  Both are
byte-stable for identical flags.  Text and json are built by callables,
so no request pays, in time or memory, for a format it did not ask for.

Exact counts print in full.  `count` hands over its terms as exact
`Decimal`s, whose `str()` is linear in the digits, so its csv and text
are linear in their length and `json_numbers` writes its json, which
`json.dumps` would refuse.  `json_numbers` also writes the A(n, l) tables,
one row object at a time through `json_record`, so no table is held as
dicts.  Every other payload goes through `json_text`.
Integers past Python's int-to-str digit limit format only while the
writer has lifted it.
"""
import json
from functools import partial
from itertools import chain, islice
from typing import Callable, Iterable, NamedTuple

CHUNK = 1 << 16  # characters per chunk, about 64 KB


class Output(NamedTuple):
    """What a subcommand prints, in each format it supports, and its exit code."""

    text: Callable[[], Iterable[str]] | None = None  # returns text chunks
    json: Callable[[], Iterable[str]] | None = None  # returns json chunks
    header: tuple = ()  # csv column names
    rows: Iterable = ()  # csv cells, one sequence per line; iterated once
    code: int = 0


def batched(pieces, sep="", end=""):
    """`sep.join(pieces) + end` as chunks of about CHUNK characters.

    Each batch takes as many pieces as the last batch's mean piece length
    fits in CHUNK, but at most twice as many as the last, so pieces that
    grow (counts gain digits with n) never make one huge chunk.
    """
    pieces = iter(pieces)
    count, lead = 1, ""
    while batch := list(islice(pieces, count)):
        text = lead + sep.join(batch)
        yield text
        count = max(1, min(2 * count, count * CHUNK // max(len(text), 1)))
        lead = sep
    yield end


def csv_text(header, rows):
    """A header line, then one line of comma-joined `str()` cells per row."""
    lines = map(",".join, map(partial(map, str), chain([header], rows)))
    return batched(lines, "\n", "\n")


def json_text(payload):
    """Sorted, two-space indented json with a trailing newline.

    `json.dumps` with an indent joins the chunks of this same encoder.
    """
    encoder = json.JSONEncoder(sort_keys=True, indent=2)
    return batched(encoder.iterencode(payload), end="\n")


def json_numbers(payload, item=str):
    """`json_text(payload)` for a dict of ints, strings and nonempty lists.

    A list may be any iterable; it is iterated once, and `item` writes
    each element.  The default `str()` prints exact integer Decimals,
    which `json.dumps` rejects, like the ints they equal.
    """
    for i, key in enumerate(sorted(payload)):
        yield ("{\n  " if i == 0 else ",\n  ") + json.dumps(key) + ": "
        value = payload[key]
        if isinstance(value, (int, str)):
            yield json.dumps(value)
        else:
            yield "[\n    "
            yield from batched(map(item, value), ",\n    ", "\n  ]")
    yield "\n}\n"


def json_record(keys):
    """An `item` for `json_numbers`: a tuple of numbers as a json object.

    The object maps keys[i] to the tuple's i-th number, keys sorted, as
    `json_text` indents an object inside a list inside the payload.
    """
    fields = sorted((key, i) for i, key in enumerate(keys))
    template = ",".join(f"\n      {json.dumps(key)}: {{{i}}}" for key, i in fields)
    template = "{{" + template + "\n    }}"
    return lambda values: template.format(*values)


def render(output, fmt):
    """The chunks of `output` in format `fmt` ("text", "csv" or "json").

    Nothing is formatted until the chunks are consumed.
    """
    if fmt == "json":
        yield from output.json()
    elif fmt == "csv":
        yield from csv_text(output.header, output.rows)
    else:
        yield from output.text()
