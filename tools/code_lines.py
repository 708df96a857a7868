"""Count the lines of the Python modules under a directory.

Usage: python tools/code_lines.py [DIR]   (default: src/choc)

Prints, per module and in total, all lines and code lines. A code line is
not blank, not a comment alone, and not inside the docstring of a module,
class or function.
"""

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of the module at ``path``."""
    text = path.read_text()
    lines = text.splitlines()
    docs = _docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(lines, start=1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/choc")
    rows = [(str(path.relative_to(root)), *count(path))
            for path in sorted(root.rglob("*.py"))]
    width = max([len("total")] + [len(name) for name, _, _ in rows])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
