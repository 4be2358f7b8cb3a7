"""Count the physical and logical lines of the ``cryptoherm`` package.

A logical line is one tokenize ``NEWLINE`` token: one simple statement,
or one compound-statement header, however many physical lines it spans.
A statement that is a lone string (a docstring, say) is not counted.

Usage::

    python tools/logical_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/cryptoherm`` next to this script.  Only
the standard library is used, so the counter runs on any checkout.
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

#: tokens that carry no statement of their own
_LAYOUT = {tokenize.ENCODING, tokenize.INDENT, tokenize.DEDENT, tokenize.NL, tokenize.COMMENT}


def count(path: Path) -> tuple[int, int]:
    """(physical, logical) lines of one Python source file."""
    source = path.read_bytes()
    logical = 0
    kinds: set[int] = set()  # token types of the statement being read
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            logical += kinds != {tokenize.STRING}
            kinds = set()
        elif tok.type not in _LAYOUT:
            kinds.add(tok.type)
    return len(source.splitlines()), logical


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "cryptoherm"
    total_physical = total_logical = 0
    print(f"{'module':<16}{'physical':>10}{'logical':>10}")
    for path in sorted(root.glob("*.py")):
        physical, logical = count(path)
        total_physical += physical
        total_logical += logical
        print(f"{path.name:<16}{physical:>10}{logical:>10}")
    print(f"{'total':<16}{total_physical:>10}{total_logical:>10}")


if __name__ == "__main__":
    main(sys.argv[1:])
