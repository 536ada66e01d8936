import json

from peakless import render


def test_json_text_is_json_dumps():
    payload = {
        "empty": [],
        "rows": [{"b": [1, {"c": None}], "a": "x"}, {}, []],
        "ratio": 0.1,
        "ok": True,
        "text": 'a "quoted"\nline, café ☃',
        "n": -3,
        "paths": ["", "UD"],
    }
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert "".join(render.json_text(payload)) == want
    # lists may be any iterable, read once
    streamed = {k: iter(v) if isinstance(v, list) else v for k, v in payload.items()}
    assert "".join(render.json_text(streamed)) == want


def test_batched_of_no_pieces_yields_nothing():
    assert list(render.batched([], ",", "]")) == []
    assert list(render.batched(iter(()))) == []
    assert "".join(render.batched(["a", "b"], ",", "]")) == "a,b]"


def test_batched_closes_a_chunk_once_it_holds_chunk_characters():
    chunk = render.CHUNK
    # each piece with its separator fills a chunk: one piece a chunk, and
    # when the last piece closes one, `end` is still written once, after it
    pieces = ["x" * (chunk - 1)] * 3
    chunks = list(render.batched(pieces, ",", "]"))
    assert chunks == [pieces[0], "," + pieces[0], "," + pieces[0] + "]"]
    # a piece longer than CHUNK is never split
    assert list(render.batched(["y" * (chunk + 5)], ",", "]")) == ["y" * (chunk + 5) + "]"]
    # growing pieces: no chunk is longer than CHUNK plus one piece, its
    # separator and `end`
    pieces = [str(7**i) for i in range(3000)]
    chunks = list(render.batched(pieces, ", ", "\n"))
    assert "".join(chunks) == ", ".join(pieces) + "\n"
    assert len(chunks) > 10
    assert max(map(len, chunks)) <= chunk + max(map(len, pieces)) + len(", \n")


def test_json_text_streams_its_lists():
    # the first element is written before the list is read to its end
    size, read = 30_000, []

    def paths():
        for i in range(size):
            read.append(i)
            yield "FUD"

    chunks = render.json_text({"n": 3, "paths": paths()})
    text = ""
    while '"FUD"' not in text:
        text += next(chunks)
    assert 0 < len(read) < size
    text += "".join(chunks)
    assert len(read) == size
    assert json.loads(text) == {"n": 3, "paths": ["FUD"] * size}
