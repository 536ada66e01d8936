"""The csv, json and text output rules shared by every CLI subcommand.

A subcommand computes and checks its data once and returns an `Output`;
`render` formats only the requested format from it, as text chunks the
CLI writes one by one.  A chunk closes once it holds CHUNK characters,
so no chunk is longer than CHUNK plus one piece, and a request holds its
data and one chunk, never its whole output.  csv and json are byte-stable
for identical flags.  Text and json are built by callables, so no request
pays, in time or memory, for a format it did not ask for.

One writer, `json_text`, writes every json payload, each list element by
element.  Exact counts print in full: `count` hands over exact `Decimal`s,
whose `str()` is linear in the digits, so its csv, text and json are
linear in their length, and the A(n, l) tables write one row object at a
time through `json_record`.  Integers past Python's int-to-str digit
limit format only while the writer has lifted it.
"""
from collections import namedtuple
from functools import cache, partial
from itertools import chain

CHUNK = 1 << 16  # characters per chunk, about 64 KB

# What a subcommand prints, in each format it supports, and its exit code:
# `text` returns text chunks, `json` the one writer's chunks, `header` and
# `rows` are the csv column names and cells (one sequence per line, iterated
# once), and `code` is the exit code.
Output = namedtuple(
    "Output", "text json header rows code", defaults=(None, None, (), (), 0)
)


def batched(pieces, sep="", end=""):
    """`sep.join(pieces) + end` as chunks; no pieces give no chunk at all.

    A chunk closes once it holds CHUNK characters, each piece counted with
    its separator, so no chunk is longer than CHUNK plus one piece and `end`.
    """
    batch, size = [], 0
    for piece in pieces:
        if size >= CHUNK:
            yield sep.join(batch)
            batch, size = [""], 0  # the next chunk opens with a separator
        batch.append(piece)
        size += len(sep) + len(piece)
    if batch:
        yield sep.join(batch) + end


def csv_text(header, rows):
    """A header line, then one line of comma-joined `str()` cells per row."""
    lines = map(",".join, map(partial(map, str), chain([header], rows)))
    return batched(lines, "\n", "\n")


@cache
def _encode():
    # the one shared encoder; json is imported only for json output
    import json

    return json.JSONEncoder(sort_keys=True, indent=2).encode


def json_text(payload, item=None):
    """`json.dumps(payload, sort_keys=True, indent=2) + "\\n"` as chunks.

    `payload` maps keys to numbers, strings and lists.  A list may be any
    iterable, read once (an empty one is written `[]`), and `item` writes
    each element, by default as `json.dumps` writes a value two levels
    deep.  `str` writes ints and exact integer Decimals, which
    `json.dumps` rejects, like the ints they equal.
    """
    encode = _encode()
    if item is None:

        def item(value):
            # json escapes every newline inside a string
            return encode(value).replace("\n", "\n    ")

    for i, key in enumerate(sorted(payload)):
        yield ("{\n  " if i == 0 else ",\n  ") + encode(key) + ": "
        value = payload[key]
        if isinstance(value, (int, float, str)):
            yield encode(value)
        else:
            chunks = batched(map(item, value), ",\n    ", "\n  ]")
            yield next(map("[\n    ".__add__, chunks), "[]")
            yield from chunks
    yield "\n}\n"


def json_record(keys):
    """An `item` for `json_text`: a tuple of numbers as a json object.

    The object maps keys[i] to the tuple's i-th number, keys sorted, as
    the one writer's default `item` indents an object inside a list.
    """
    fields = sorted((key, i) for i, key in enumerate(keys))
    encode = _encode()
    template = ",".join(f"\n      {encode(key)}: {{{i}}}" for key, i in fields)
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
