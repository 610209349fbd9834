"""Code lines of the ``rollstock`` package, per module and in total.

    python3 benchmarks/codelines.py [SRC]

A code line is a line that holds a token other than a comment. Blank
lines, comment-only lines and the lines of docstrings (a string literal
that is the first statement of a module, class or function) do not count.
``SRC`` defaults to this checkout's ``src`` directory; the modules counted
are those of ``SRC/rollstock``. The figure is the size that CHANGES.md
reports; it reads the sources and gates nothing.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python text ``source``."""
    docs = docstring_lines(ast.parse(source))
    counted: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in UNCOUNTED:
            counted.update(range(tok.start[0], tok.end[0] + 1))
    return len(counted - docs)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src"
    modules = sorted((src / "rollstock").glob("*.py"))
    if not modules:
        print(f"no modules under {src / 'rollstock'}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
