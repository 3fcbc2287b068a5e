"""Fail when a module of a package imports a name it never uses.

Usage: python scripts/check_unused_imports.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/varifold_lab.  Every module except __init__.py
(which imports names to re-export them) is parsed with the standard-library
ast module; an import binds a name, and the name counts as used when the
module reads it anywhere.  Prints one line per unused name and exits 1 when
there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name the module imports and never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/varifold_lab")
    found = 0
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            print(f"{path}:{line}: {name!r} is imported but never used")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
