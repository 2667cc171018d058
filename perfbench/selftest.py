"""Self-test of the benchmark itself; run from the checkout root:

    python3 perfbench/selftest.py

1. Every metric ``run.py`` prints, traced and untraced, is named in
   BENCHMARK.json with the same unit, and every named metric is printed.
2. A corrupted reference norm makes the check fail, through the same check
   function the timed runs use; the true reference passes.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   ``run.py`` exits non-zero without printing a result.

Exits 0 when all three hold. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "symbolic", "--seed", "1", "--seconds", "1",
                    "--trace", str(trace))
        if proc.returncode != 0:
            return [f"--trace {trace}: exit {proc.returncode}\n{proc.stderr}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"--trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            problems.append(f"--trace {trace}: checks failed at this commit")
        named = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != named:
            problems.append(
                f"--trace {trace}: printed {sorted(set(printed.items()) ^ set(named.items()))} "
                f"differ from BENCHMARK.json {key}"
            )
    return problems


def check_corrupted_reference() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import workloads
    from worker import _check

    tasks = [
        t for t in workloads.norms(np.random.default_rng(0), lambda *a: None)
        if t.name.split()[0].endswith("@10")
    ]
    results = [(t, t.run(), None) for t in tasks]
    problems = []
    if _check(results) != 0:
        problems.append("true reference norms fail their check")
    key = ("heis_da", "10")
    true_value = workloads.REFERENCE_NORMS[key]
    workloads.REFERENCE_NORMS[key] = true_value * (1 + 1e-5)
    try:
        if _check(results) == 0:
            problems.append("a corrupted reference norm passed its check")
    finally:
        workloads.REFERENCE_NORMS[key] = true_value
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = _run(bare, "--workload", "symbolic", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run.py succeeded in a directory without crda sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_metric_names(spec) + check_corrupted_reference() + check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
