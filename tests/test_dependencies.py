"""The package's only runtime dependency beyond the standard library is numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ebrguard"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ebrguard"}


def imported_top_level_names(path):
    """The top-level package of every absolute import in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_modules_import_only_stdlib_numpy_and_ebrguard():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in imported_top_level_names(path)
        if name not in ALLOWED
    }
    assert not outside, sorted(outside)
