"""Fail when a module of a package imports a name it never uses, binds a
private name that no module of the package reads, or raises with a message
literal that the package already writes in another raise.

Usage: python scripts/check_unused_imports.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/varifold_lab.  Every module is parsed with the
standard-library ast module.  In every module except __init__.py (which
imports names to re-export them) an import binds a name, and the name counts
as used when the module reads it anywhere.  A _private name (one leading
underscore) that a module binds at its top level, by def, class or
assignment, counts as used when some module of the package reads it, as a
name or as an attribute; tests and scripts do not count.  A raise whose
exception call takes a plain string literal first owns that message; every
later raise of the same literal is reported, so each message has one owner
to share.  Prints one line per finding and exits 1 when there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every name the module imports and never reads."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def private_names(tree: ast.Module) -> dict[str, int]:
    """{name: line} of every _private name the module binds at its top level."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [t.id for t in ast.walk(node)
                     if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    return bound


def reads(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def raise_messages(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, message) of every raise whose exception call's first argument
    is a string literal."""
    return sorted((node.lineno, node.exc.args[0].value) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and node.exc.args and isinstance(node.exc.args[0], ast.Constant)
                  and isinstance(node.exc.args[0].value, str))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/varifold_lab")
    trees = {path: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    found = 0
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(tree):
            print(f"{path}:{line}: {name!r} is imported but never used")
            found += 1
    read = set().union(*map(reads, trees.values()))
    for path, tree in trees.items():
        for name, line in private_names(tree).items():
            if name not in read:
                print(f"{path}:{line}: {name!r} is private and no module reads it")
                found += 1
    owner: dict[str, str] = {}
    for path, tree in trees.items():
        for line, message in raise_messages(tree):
            if message in owner:
                print(f"{path}:{line}: raise message {message!r} is also at {owner[message]}")
                found += 1
            owner.setdefault(message, f"{path}:{line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
