"""Count the physical and logical lines of the ``cryptoherm`` package.

A logical line is one tokenize ``NEWLINE`` token: one simple statement,
or one compound-statement header, however many physical lines it spans.
A statement that is a lone string (a docstring, say) is not counted.

Usage::

    python tools/logical_lines.py [PACKAGE_DIR] [--rev REV]

``PACKAGE_DIR`` defaults to ``src/cryptoherm`` next to this script.  With
``--rev``, the same directory is also read at git revision ``REV``
(``git show REV:path``, one file at a time) and each row gains its
physical and logical delta against that revision; a module that exists
on one side only counts as 0 lines on the other.  Only the standard
library is used, so the counter runs on any checkout.
"""
from __future__ import annotations

import argparse
import io
import subprocess
import tokenize
from pathlib import Path

#: tokens that carry no statement of their own
_LAYOUT = {tokenize.ENCODING, tokenize.INDENT, tokenize.DEDENT, tokenize.NL, tokenize.COMMENT}


def count(source: bytes) -> tuple[int, int]:
    """(physical, logical) lines of one Python source file's bytes."""
    logical = 0
    kinds: set[int] = set()  # token types of the statement being read
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            logical += kinds != {tokenize.STRING}
            kinds = set()
        elif tok.type not in _LAYOUT:
            kinds.add(tok.type)
    return len(source.splitlines()), logical


def at_revision(root: Path, rev: str) -> dict[str, tuple[int, int]]:
    """(physical, logical) of each ``*.py`` file directly in ``root`` at git revision ``rev``."""

    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, check=True).stdout

    # paths are relative to root: "./" makes git show read them that way too
    names = git("ls-tree", "--name-only", rev, "--", "./").decode().splitlines()
    return {name: count(git("show", f"{rev}:./{name}")) for name in names if name.endswith(".py")}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package_dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "cryptoherm")
    parser.add_argument("--rev", help="also print the delta against this git revision")
    args = parser.parse_args(argv)
    now = {path.name: count(path.read_bytes()) for path in args.package_dir.glob("*.py")}
    then = at_revision(args.package_dir, args.rev) if args.rev else {}
    header = f"{'module':<16}{'physical':>10}{'logical':>10}"
    print(header + (f"{'d_physical':>12}{'d_logical':>11}" if args.rev else ""))
    totals = [0, 0, 0, 0]
    for name in sorted(now.keys() | then.keys()):
        physical, logical = now.get(name, (0, 0))
        old_physical, old_logical = then.get(name, (0, 0))
        row = [physical, logical, physical - old_physical, logical - old_logical]
        totals = [t + v for t, v in zip(totals, row)]
        _print_row(name, row, args.rev)
    _print_row("total", totals, args.rev)


def _print_row(name: str, row: list[int], rev: str | None) -> None:
    line = f"{name:<16}{row[0]:>10}{row[1]:>10}"
    print(line + (f"{row[2]:>+12}{row[3]:>+11}" if rev else ""))


if __name__ == "__main__":
    main()
