"""Start-up imports only what a subcommand uses (DESIGN §17).

The package ``__init__`` modules resolve their public names on first
access (PEP 562), so ``import repro.cli`` plus one ``find`` request
must leave the ensemble, the parameter grid, the pool, streaming and
the SVG renderer unimported.  The public API stays what it was: every
name in each ``__all__`` resolves to the object its module defines.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a ``find`` request without ``--cache-dir`` never uses.
NOT_FOR_FIND = (
    "repro.core.ensemble",
    "repro.core.parameter_grid",
    "repro.core.motifs",
    "repro.core.auto_params",
    "repro.parallel",
    "repro.streaming",
    "repro.visualization.svg",
    "repro.cache.store",
    "xml.sax",
    "multiprocessing",
)

#: The packages whose public names resolve on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.visualization",
    "repro.discord",
    "repro.cache",
)

# ``dir()`` lists every public name without importing its module.
_FIND_IN_FRESH_PROCESS = f"""
import contextlib, importlib, io, json, sys
import repro.cli
undirred = [
    name
    for package in map(importlib.import_module, {LAZY_PACKAGES!r})
    for name in package.__all__
    if name not in dir(package)
]
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(["find", sys.argv[1], "--window", "60", "-k", "2"])
print(json.dumps({{"code": code, "undirred": undirred, "loaded": sorted(sys.modules)}}))
"""


def test_find_imports_only_what_it_uses(tmp_path):
    t = np.arange(2000)
    series = np.sin(2 * np.pi * t / 80)
    series[1000:1060] += 1.5
    path = tmp_path / "series.txt"
    np.savetxt(path, series)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    # Writes no .pyc files into the tree; every module compiles from
    # source, as in the start-up the benchmark times.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _FIND_IN_FRESH_PROCESS, str(path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    assert out["undirred"] == []
    loaded = set(out["loaded"])
    assert "repro.core.pipeline" in loaded
    assert sorted(loaded.intersection(NOT_FOR_FIND)) == []


def _exports(package):
    return {name: module for module, names in package._EXPORTS.items() for name in names}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyPackage:
    def test_all_lists_each_name_once(self, name):
        package = importlib.import_module(name)
        assert len(package.__all__) == len(set(package.__all__))

    def test_names_resolve_to_their_defining_objects(self, name):
        package = importlib.import_module(name)
        for public, module in _exports(package).items():
            value = getattr(package, public)
            assert value is getattr(importlib.import_module(module), public), public

    def test_star_import_binds_every_name(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        for public in package.__all__:
            assert namespace[public] is getattr(package, public)

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"module '{name}' has no attribute"):
            package.no_such_name  # noqa: B018


def test_submodule_import_falls_through_the_lazy_table():
    from repro.core import rra
    from repro.discord import hotsax

    assert isinstance(rra, types.ModuleType) and rra.__name__ == "repro.core.rra"
    assert hotsax.__name__ == "repro.discord.hotsax"


def test_sax_discretize_is_still_the_function():
    from repro.sax import discretize

    assert not isinstance(discretize, types.ModuleType)
    assert discretize is sys.modules["repro.sax.discretize"].discretize


def test_ensemble_choices_have_one_definition():
    import repro.core
    import repro.core.ensemble

    assert repro.core.ensemble.AGGREGATIONS is repro.core.AGGREGATIONS
    assert repro.core.ensemble.NORMALIZATIONS is repro.core.NORMALIZATIONS
