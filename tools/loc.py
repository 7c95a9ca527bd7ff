"""Code lines of the package, by the tokenize count.

    python3 tools/loc.py

Stdlib only, and it takes no options.  For each src/supercat/*.py it counts
the lines that hold a token other than a comment, a NL, NEWLINE, INDENT or
DEDENT token, or a module, class or function docstring, and prints each file
with its count, largest first, then the total.  A token that spans lines,
such as a triple-quoted string that is not a docstring, counts on every line
it spans.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "supercat"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the source starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = docstring_starts(source)
    lines = set()
    with path.open() as handle:
        for tok in tokenize.generate_tokens(handle.readline):
            if tok.type in SKIPPED:
                continue
            if tok.type == tokenize.STRING and tok.start in docstrings:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    if sys.argv[1:]:
        print("usage: python3 tools/loc.py (it takes no options)", file=sys.stderr)
        return 2
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    for name, lines in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{lines:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
