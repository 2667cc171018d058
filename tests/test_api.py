"""Every exported name resolves, so a deleted function leaves no stale export,
and importing crda leaves scipy's dense and sparse linear algebra unloaded."""

import importlib
import subprocess
import sys

import pytest

MODULES = [
    "crda.pauli",
    "crda.device",
    "crda.hamiltonians",
    "crda.frames",
    "crda.compiler",
    "crda.errors",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_import_leaves_scipy_linalg_unloaded():
    # a fresh process: this one has scipy.linalg loaded by the test helpers
    code = "import sys, crda, crda.cli; print(*sys.modules)"
    ret = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert ret.returncode == 0, ret.stderr
    loaded = ret.stdout.split()
    assert "crda.cli" in loaded
    assert "scipy.linalg" not in loaded
    assert "scipy.sparse.linalg" not in loaded
