"""The library's public surface is what the program runs.

Every public top-level function and class of ``src/sfgof`` must be named
somewhere in the library, ``scripts/`` or ``perfbench/`` outside its own
definition, so that a helper only the tests call lives with the tests
(see ``tests/reference.py``).  A name counts where it appears as a bare
name, as an attribute, or as a string constant (the benchmark names the
functions it traces as strings).  Re-exports in ``sfgof/__init__.py`` do
not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sfgof"

def _names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _program_files() -> list[Path]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def unreferenced_public_names() -> list[str]:
    """module.name for each public top-level function or class that no other top-level statement names."""
    statements = []  # (file, top-level statement, the names it refers to)
    for path in _program_files():
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append((path, stmt, _names(stmt)))
    missing = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_"):
            continue
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            missing.append(f"{path.stem}.{stmt.name}")
    return missing


def test_every_public_name_is_used_by_the_program():
    assert unreferenced_public_names() == []

