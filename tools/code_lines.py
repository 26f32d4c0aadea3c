"""Count code lines of Python sources: lines that hold a token other than a
comment, with blank lines and module, class and function docstrings left out.

Usage: python tools/code_lines.py PATH [PATH ...]

Each PATH is a .py file or a directory searched for them. Prints one line
per module, `<code lines>  <path>`, each followed by one indented line per
top-level function and class with the code lines inside it (decorators
included), then one total line per PATH given as a directory. A line
counts once however many tokens it holds; a token that spans lines (a
multi-line string that is not a docstring, say) counts every line it
covers.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> set[int]:
    """The numbers of the code lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstrings


def top_level(source: str, lines: set[int]) -> list[tuple[str, int]]:
    """(name, code lines) of each top-level function and class, in order."""
    units = []
    for node in ast.parse(source).body:
        if isinstance(node, _SCOPES[1:]):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            count = sum(start <= line <= node.end_lineno for line in lines)
            units.append((node.name, count))
    return units


def _modules(path: Path) -> list[Path]:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    for path in args.paths:
        if not path.exists():
            print(f"code_lines: no such file or directory: {path}", file=sys.stderr)
            return 2
        total = 0
        for module in _modules(path):
            source = module.read_text(encoding="utf-8")
            lines = code_lines(source)
            total += len(lines)
            print(f"{len(lines):6d}  {module}")
            for name, count in top_level(source, lines):
                print(f"{count:10d}  {name}")
        if path.is_dir():
            print(f"{total:6d}  {path} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
