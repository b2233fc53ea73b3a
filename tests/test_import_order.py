"""Import-order guard for the JSON codec.

Every document type registers itself with :func:`repro.io.document`
when its class is defined, so :mod:`repro.io` is an import-time
dependency of ``repro.core`` and of every other module that defines
or decodes a document.  A module that imports cleanly only because
the test suite happened to import something else first would hide an
import cycle, so each one is imported here in a fresh interpreter.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

DOCUMENT_MODULES = [
    "repro.io",
    "repro.core.equilibrium",
    "repro.core.performance_model",
    "repro.core.assignment",
    "repro.core.feature",
    "repro.core.power_model",
    "repro.api",
    "repro.fleet.spec",
    "repro.fleet.types",
    "repro.hetero.types",
    "repro.serve.registry",
]


@pytest.mark.parametrize("module", DOCUMENT_MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_io_imports_no_document_module_at_top_level():
    tree = ast.parse((SRC / "repro" / "io.py").read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert {name for name in imported if name.startswith("repro")} == {"repro.errors"}
