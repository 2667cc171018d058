"""Golden CLI corpus: every recorded command prints what it printed when recorded.

``tests/golden/cli.json`` maps each argv to its exit code and stdout;
``tests/golden/regenerate.py`` rewrites it. Text compares exactly and
numbers to a relative 1e-12, so the last digits may move with the numpy
and BLAS build but no printed value may.
"""

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
