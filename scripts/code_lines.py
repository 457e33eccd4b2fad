"""Count the code lines of a Python package, module by module.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (the first statement of a module, class
or function, when it is a string) are left out. Usage:

    python scripts/code_lines.py src/ocedf

prints, for each ``*.py`` file directly in the directory, its code lines
and its total lines, then the totals over the package.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(package: Path) -> list[tuple[str, int, int]]:
    """(file name, code lines, total lines) of each module of ``package``."""
    out = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        out.append((path.name, code_lines(source), len(source.splitlines())))
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, help="a package directory, e.g. src/ocedf")
    rows = count(parser.parse_args(argv).package)
    width = max([len("total"), *(len(name) for name, _, _ in rows)])
    print(f"{'module':<{width}}  {'code':>6}  {'lines':>6}")
    for name, code, total in rows:
        print(f"{name:<{width}}  {code:>6}  {total:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")


if __name__ == "__main__":
    main()
