"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hybridflow"


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads, as "line name".
    `__future__` imports and import statements marked `# noqa` are exempt."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno} {name}")
    return unused


def test_checker_flags_only_unread_unmarked_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport sys  # noqa: F401\n"
              "from math import (pi,\n    tau)\n"
              "import numpy as np\n"
              "print(pi, np.zeros)\n")
    assert unused_imports(source) == ["2 os", "4 tau"]


# a package's __init__ imports its public names in order to export them
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
