"""Golden CLI corpus: every recorded command prints what it printed when recorded.

``tests/golden/cli.json`` maps each argv to its exit code and stdout;
``tests/golden/regenerate.py`` rewrites it. Text compares exactly and
numbers to a relative 1e-12, so the last digits may move with the numpy
and BLAS build but no printed value may.
"""

import builtins
import json
import math
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
sys.path.insert(0, str(GOLDEN))
from regenerate import COMMANDS, run  # noqa: E402

CORPUS = json.loads((GOLDEN / "cli.json").read_text())
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _split(text: str) -> tuple[list[str], list[float]]:
    """The text between numbers, and the numbers."""
    return _NUMBER.split(text), [float(m) for m in _NUMBER.findall(text)]


def test_corpus_holds_every_command():
    assert list(CORPUS) == COMMANDS


@pytest.mark.parametrize("command", list(CORPUS))
def test_stdout_matches_corpus(command):
    want = CORPUS[command]
    code, stdout = run(command.split())
    assert code == want["exit"]
    text, numbers = _split(stdout)
    want_text, want_numbers = _split(want["stdout"])
    assert text == want_text
    assert len(numbers) == len(want_numbers)
    moved = [
        (k, got, ref)
        for k, (got, ref) in enumerate(zip(numbers, want_numbers))
        if not math.isclose(got, ref, rel_tol=1e-12)
    ]
    assert not moved, f"numbers moved (index, got, recorded): {moved[:5]}"


@pytest.mark.parametrize("command", [c for c in COMMANDS if "--params" in c])
def test_params_paths_resolve_from_any_working_directory(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --params paths name files under the repository root
    code, _ = run(command.split())
    assert code == 0
    assert Path.cwd() == tmp_path


def _compensated_sum(items, start=0):
    """The builtin ``sum`` as CPython 3.12 on forms it: floats added with Neumaier compensation."""
    items = list(items)
    if not (type(start) is int and start == 0 and items and all(type(v) is float for v in items)):
        return builtins.sum(items, start)
    total = comp = 0.0
    for v in items:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


_SUM_COMMANDS = [c for c in COMMANDS if c.startswith(("simulate", "errors --which synthesis", "errors --which dyson"))]


@pytest.mark.parametrize("command", _SUM_COMMANDS)
def test_stdout_bytes_independent_of_builtin_sum(command, monkeypatch):
    # From Python 3.12 on the builtin sum compensates, which moves the last
    # bits of a float sum; every crda module sees that sum here, and the
    # printed bytes must stay the recorded ones. What crda's caches kept from
    # earlier runs under the plain sum is dropped and computed again.
    import crda.cli  # noqa: F401  (loads every crda module)

    for name, module in list(sys.modules.items()):
        if name == "crda" or name.startswith("crda."):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
            for f in vars(module).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()
    assert run(command.split()) == (CORPUS[command]["exit"], CORPUS[command]["stdout"])
