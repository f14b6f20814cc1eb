"""Layering: the model, engine and campaign layers never reach the daemon.

``repro.service`` (the daemon) builds on ``repro.campaign`` (the
executor and its process pool), which builds on the model and engine
packages.  Imports only point down: the pool declares the hooks it
needs and the daemon's types satisfy them, so a campaign -- even one
that forks a worker pool -- never loads a daemon module.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
LOWER_LAYERS = ("campaign", "core", "simulation", "platforms", "errors")


def _modules(package_dir):
    """``(path, dotted module name)`` of every module under a package."""
    for root, _, files in os.walk(package_dir):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                rel = os.path.relpath(path, SRC)[: -len(".py")]
                yield path, rel.replace(os.sep, ".")


def _imported_names(path, module):
    """Every module name an import statement anywhere in the file names.

    ``ast.walk`` visits function bodies and ``if TYPE_CHECKING:`` blocks
    too; relative imports are resolved against ``module``, and
    ``from pkg import name`` yields ``pkg.name`` as well as ``pkg``.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    package = module.split(".")
    if not path.endswith("__init__.py"):
        package = package[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1]
            parts = base if node.level else []
            if node.module:
                parts = parts + node.module.split(".")
            source = ".".join(parts)
            yield source
            for alias in node.names:
                yield f"{source}.{alias.name}"


def _is_service(name):
    return name == "repro.service" or name.startswith("repro.service.")


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layer_never_imports_the_service(layer):
    offenders = [
        f"{os.path.relpath(path, SRC)}: {name}"
        for path, module in _modules(os.path.join(SRC, "repro", layer))
        for name in _imported_names(path, module)
        if _is_service(name)
    ]
    assert offenders == []


def test_spans_module_is_stdlib_only():
    path = os.path.join(SRC, "repro", "spans.py")
    names = set(_imported_names(path, "repro.spans"))
    assert not any(n == "repro" or n.startswith("repro.") for n in names)


def test_import_walk_sees_local_and_type_checking_imports(tmp_path):
    """The walk itself: the import forms a layering slip would take."""
    path = tmp_path / "mod.py"
    path.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.service.obs import Observability\n"
        "def f():\n"
        "    from ..service import faults\n"
        "    import repro.service.server\n"
        "from repro import service\n"
    )
    names = set(_imported_names(str(path), "repro.campaign.mod"))
    assert {
        "repro.service.obs",
        "repro.service",
        "repro.service.faults",
        "repro.service.server",
    } <= names


_TWO_POINT_CAMPAIGN = """
import json, sys
from repro.campaign.executor import run_campaign
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.platforms.catalog import hera

points = [
    ScenarioPoint(mode="simulate", kind=kind, platform=platform_to_dict(hera()),
                  n_patterns=3, n_runs=2, seed=11)
    for kind in ("PD", "PDMV")
]
result = run_campaign(points, n_workers=2)
assert result.n_computed == 2
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""


def test_pooled_campaign_loads_no_service_module():
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_POINT_CAMPAIGN],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.campaign.pool" in loaded
    assert [m for m in loaded if _is_service(m)] == []
