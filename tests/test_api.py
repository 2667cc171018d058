"""Every exported name resolves, so a deleted function leaves no stale export."""

import importlib

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
