"""Static checks on the package source that need no linter."""

import ast
import dataclasses
from pathlib import Path

import pytest

from hybridflow.engine import EngineConfig
from hybridflow.lod import LodPolicy

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hybridflow"
REPO = PACKAGE.parents[1]


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
                                        if p.name != "__init__.py")
                         + sorted((REPO / "demos").glob("*.py"))
                         + sorted((REPO / "tests").glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


#: public names that code outside the tests need not reference, with the reason
UNREFERENCED_ALLOWED: dict[str, str] = {
    "engine.apply_system_influences":
        "the influence API through which the paper's regulation algorithms "
        "remove, insert and restructure",
    "macro.demand":
        "the scalar oracle that the vectorized `demand_supply` is checked against",
    "scenario.write_scenario":
        "the file writer paired with `serialize_scenario`",
}


def public_definitions(source: str, module: str) -> list[tuple[str, str]]:
    """(qualified name, name) of each public top-level function and class of
    a module, and of each public method defined in such a class."""
    defs = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        defs.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                     if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return defs


def referenced_names(source: str) -> set[str]:
    """Names the source reads, imports or holds as a string: the engine calls
    probe callbacks through `getattr(probe, event)` with the event's name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_reference_finder_sees_reads_imports_and_string_names():
    source = ("from m import a\nimport p.b\nc()\nx.d\ngetattr(y, 'e')\n"
              "'not a name'\ndef f(): pass\nclass G:\n    def h(self): pass\n")
    assert referenced_names(source) == {"a", "b", "c", "x", "d", "getattr", "y", "e"}
    assert public_definitions(source, "mod") == [("mod.f", "f"), ("mod.G", "G"),
                                                 ("mod.G.h", "h")]


def test_every_public_name_is_used_outside_the_tests():
    """Code only the tests use does not belong in the package."""
    used = set()
    for directory in ("src", "demos", "bench"):
        for path in sorted((REPO / directory).rglob("*.py")):
            # the package's re-exports are no use: any exported name passes
            if path != PACKAGE / "__init__.py":
                used |= referenced_names(path.read_text())
    unused = [qualified for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in public_definitions(path.read_text(), path.stem)
              if name not in used]
    assert sorted(unused) == sorted(UNREFERENCED_ALLOWED)


def private_definitions(source: str, module: str) -> list[tuple[str, str]]:
    """(qualified name, name) of each private top-level function of a module
    and of each private method of its classes; Python itself calls the
    dunder methods."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            defs.append((f"{module}.{node.name}", node.name))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                     and not item.name.endswith("__")]
    return defs


def test_private_finder_skips_public_and_dunder_names():
    source = ("def _f(): pass\ndef g(): pass\nclass _H:\n    def __init__(self): pass\n"
              "    def _i(self): pass\n    def j(self): pass\n")
    assert private_definitions(source, "mod") == [("mod._f", "_f"), ("mod._H._i", "_i")]


def test_every_private_helper_is_used_in_the_package():
    """A helper nothing in the package calls is dead code."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        used |= referenced_names(path.read_text())
    unused = [qualified for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in private_definitions(path.read_text(), path.stem)
              if name not in used]
    assert unused == []


#: settings that code outside the tests need not pass by keyword, with the reason
UNPASSED_ALLOWED = {
    "EngineConfig.lod_enabled":
        "the static-hybrid baseline that the acceptance suite and ROADMAP item 9 "
        "compare the runtime switching against",
}


def keywords_passed(source: str, classes: set[str]) -> set[str]:
    """"Class.keyword" for each keyword of a call to one of `classes`, or of a
    call whose first argument names one, as `_build(LodPolicy, ..., x=...)`."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in [node.func, *node.args[:1]]
                 if isinstance(n, (ast.Name, ast.Attribute))}
        passed |= {f"{cls}.{kw.arg}" for cls in names & classes
                   for kw in node.keywords if kw.arg is not None}
    return passed


def test_keyword_finder_sees_direct_and_factory_calls():
    source = ("A(x=1)\nm.A(y=2, **rest)\nbuild(B, 'p', z=3)\nC(w=4)\nf(A)\n")
    assert keywords_passed(source, {"A", "B"}) == {"A.x", "A.y", "B.z"}


def test_every_setting_is_passed_by_keyword_outside_the_tests():
    """A setting nothing sets is a knob that does not pay for itself."""
    passed = set()
    for directory in ("src", "demos", "bench"):
        for path in sorted((REPO / directory).rglob("*.py")):
            passed |= keywords_passed(path.read_text(), {"EngineConfig", "LodPolicy"})
    settings = {f"{cls.__name__}.{f.name}" for cls in (EngineConfig, LodPolicy)
                for f in dataclasses.fields(cls)}
    assert sorted(settings - passed) == sorted(UNPASSED_ALLOWED)
