"""Print the size of each module of src/gbengine: `wc -l` lines and code-only
lines (no blank, comment or docstring line), then the totals.

    python3 tools/size.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gbengine"


def docstring_lines(tree):
    """Line numbers covered by the docstrings of a module, its classes and
    its functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def measure(path):
    """(wc -l lines, code-only lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for n, line in enumerate(lines, start=1)
               if line.strip() and not line.strip().startswith("#")
               and n not in docs)
    return text.count("\n"), code


def main():
    rows = [(p.name,) + measure(p) for p in sorted(PACKAGE.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print("%-*s %7s %7s" % (width, "module", "wc -l", "code"))
    for name, wc, code in rows:
        print("%-*s %7d %7d" % (width, name, wc, code))
    print("%-*s %7d %7d" % (width, "total", sum(r[1] for r in rows),
                            sum(r[2] for r in rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
