"""The bottom of the import graph: ``obs``'s core modules import only
``obs``.

``pmem.timing``, which every layer imports, imports the observer, so an
import from the rest of ``repro`` in these modules would close a cycle
and break every import.  The check reads the source, so it also sees
imports inside functions.
"""

import ast
from pathlib import Path

import pytest

import repro.obs

OBS = Path(repro.obs.__file__).parent
CORE = ("observer.py", "metrics.py", "telemetry.py")


def imported_modules(source: str):
    """Every module a module of ``repro.obs`` with this source imports,
    as an absolute name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ["repro", "obs"][:3 - node.level]
                yield ".".join(base + ([node.module] if node.module else []))
            else:
                yield node.module


def outside_obs(source: str):
    return [mod for mod in imported_modules(source)
            if (mod == "repro" or mod.startswith("repro."))
            and not (mod == "repro.obs" or mod.startswith("repro.obs."))]


@pytest.mark.parametrize("name", CORE)
def test_core_obs_module_imports_nothing_else_from_repro(name):
    assert outside_obs((OBS / name).read_text()) == [], name


def test_guard_sees_every_form_of_import():
    source = ("from .metrics import Histogram\n"
              "from . import telemetry\n"
              "def f():\n"
              "    from ..pmem import timing\n"
              "    import repro.kernel.machine\n"
              "    from repro.obs.metrics import Counter\n")
    assert outside_obs(source) == ["repro.pmem", "repro.kernel.machine"]
