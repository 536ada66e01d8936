"""Count the code lines of Python sources.

A code line holds at least one token other than a comment or a docstring
statement (a statement made of string literals alone); blank lines,
comments and docstrings do not count.  Every line a multi-line token
spans counts.  Prints the total over the files and directories given
(directories are searched for *.py files):

    python tools/code_lines.py src/peakless
"""
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path):
    """The number of code lines of one Python source file."""
    lines, statement = set(), []
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif token.type not in LAYOUT:
                statement.append(token)
    return len(lines)


def sources(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


if __name__ == "__main__":
    print(sum(map(code_lines, sources(sys.argv[1:]))))
