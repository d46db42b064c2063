"""Count the code lines of fgml's modules, leaving out comments, blank
lines and docstrings.

A line counts when a token other than a comment, a line break or an
indentation change starts on it or spans it. A docstring is a statement
that is only string literals; its lines count only where other code
shares them. Reads the source with the standard tokenizer and imports
nothing from fgml.

    python tools/code_lines.py [DIR]   # DIR defaults to src/fgml
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

BREAKS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING):
                continue
            if tok.type not in BREAKS:
                statement.append(tok)
                continue
            if any(t.type != tokenize.STRING for t in statement):  # not a docstring
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "fgml"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
