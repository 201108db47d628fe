"""Count the physical lines and the code lines of each module of a package.

    python3 tools/code_lines.py [DIR]

DIR defaults to ``src/ckv``.  For each ``*.py`` file of DIR (not its
subdirectories), sorted by name, the script prints the physical line count
(what ``wc -l`` reports) and the code line count, then the totals.  A code
line is a line that holds part of a token of the program: blank lines,
comments and string literals that stand alone as a statement (docstrings)
are left out, and a statement or string spanning several lines counts each
of them.  Files are read with ``tokenize``, so an encoding declaration is
honoured.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code (see the module docstring)."""
    strings = [((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
               and isinstance(node.value.value, str)]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(a <= tok.start and tok.end <= b for a, b in strings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: code_lines.py [DIR]", file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "ckv"
    total_physical = total_code = 0
    print(f"{'physical':>8} {'code':>6}  module")
    for path in sorted(root.glob("*.py")):
        with tokenize.open(path) as fh:
            source = fh.read()
        physical, code = source.count("\n"), code_lines(source)
        total_physical, total_code = total_physical + physical, total_code + code
        print(f"{physical:>8} {code:>6}  {path.name}")
    print(f"{total_physical:>8} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
