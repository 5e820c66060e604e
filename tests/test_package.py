"""The package exports exactly the public names its modules define.

The package, the bench harness and the demos import only the stdlib.
"""

import ast
import importlib
import sys
from pathlib import Path

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
