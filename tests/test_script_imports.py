"""Every ``from repro… import name`` in ``examples/`` and ``benchmarks/``
resolves.

Neither directory is collected by the default test run, so a public name
removed from ``src/`` would otherwise break a script silently.  Each
script is parsed, not run; every ``from repro… import`` statement in it,
at module level or inside a function, is resolved with
:func:`importlib.import_module` and :func:`getattr`.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("examples", "benchmarks")
    for path in (ROOT / folder).glob("*.py")
)


def _repro_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each name a ``from repro… import`` takes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]


def test_scripts_are_found():
    assert "examples/related_work_tour.py" in SCRIPTS
    assert "benchmarks/bench_baselines.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_repro_imports_resolve(script):
    missing = []
    for module, name in _repro_imports(ROOT / script):
        if name == "*":
            continue
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert not missing, f"{script} imports names that do not exist: {missing}"
