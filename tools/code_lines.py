"""Code lines of each module of a package directory, and their total.

    python3 tools/code_lines.py [DIR]

DIR defaults to ``src/vvmf``.  A code line is a line that holds part of a
token other than a comment, a line break or an indentation change, and
that is not part of the docstring of a module, class or function.  So
comments, blank lines and docstrings are left out, while every line of a
continued statement or of a multi-line string that is no docstring counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "vvmf"

#: tokens that hold no code
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=DEFAULT_DIR)
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.dir.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
