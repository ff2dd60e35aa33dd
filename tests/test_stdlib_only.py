"""The runtime is stdlib-only: the package imports nothing outside the standard
library and itself, though numpy or scipy may be installed beside it."""

import ast
import sys
from pathlib import Path

import isospec

PACKAGE = Path(isospec.__file__).parent


def _imported_roots(tree):
    """(line, top-level module) of every absolute import in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    allowed = sys.stdlib_module_names | {"isospec"}
    found = [
        f"{path.name}:{line}: {root}"
        for path in paths
        for line, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in allowed
    ]
    assert not found, found
