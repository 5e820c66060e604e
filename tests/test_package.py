"""The package exports exactly the public names its modules define.

The package, the bench harness and the demos import only the stdlib, and
every source parses under the oldest supported Python, 3.10.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import chaincliq

MODULES = ("graphs", "chains", "derived", "witness", "oracle", "search", "rng")


def public_definitions(module):
    """Top-level classes, functions and assignments without a leading underscore."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_all_is_the_public_names_of_the_library_modules():
    defined = set()
    for name in MODULES:
        defined |= public_definitions(importlib.import_module(f"chaincliq.{name}"))
    assert sorted(chaincliq.__all__) == sorted(defined)
    assert all(hasattr(chaincliq, name) for name in chaincliq.__all__)


def test_each_module_exports_exactly_its_own_public_definitions():
    for name in MODULES:
        module = importlib.import_module(f"chaincliq.{name}")
        assert sorted(module.__all__) == sorted(public_definitions(module)), name


def test_every_source_parses_as_python_3_10():
    repo = Path(__file__).resolve().parents[1]
    sources = [path for part in ("src", "tests", "bench", "demos")
               for path in sorted((repo / part).rglob("*.py"))]
    assert len(sources) > 20
    for source in sources:
        ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=(3, 10))
    for newer in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "type X = int\n"):
        with pytest.raises(SyntaxError):
            ast.parse(newer, feature_version=(3, 10))


def test_every_import_is_relative_or_stdlib():
    sources = sorted(Path(chaincliq.__file__).parent.glob("*.py"))
    assert len(sources) >= len(MODULES)
    repo = Path(__file__).resolve().parents[1]
    harness = sorted(repo.glob("bench/*.py")) + sorted(repo.glob("demos/*.py"))
    assert harness
    local = {"chaincliq", "run", "workloads", "tracer"}  # the package and the bench's own modules
    for source in sources + harness:
        allowed = sys.stdlib_module_names | (local if source in harness else set())
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.partition(".")[0]]
            else:
                continue
            for root in roots:
                assert root in allowed, f"{source.name} imports {root}"
