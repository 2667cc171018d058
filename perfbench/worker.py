"""One benchmark process: set up a workload, time its passes, check results.

Started by ``run.py`` in a fresh interpreter. ``--spawned`` is the parent's
``time.monotonic()`` just before the start, so set-up time covers process
start, imports and seeded input generation. The result is one JSON object
on the last line of standard output.

Times are reported in reference-host seconds (see ``hostprobe.py``). The
host's slowness is sampled at the start of each pass, after every
``PROBE_EVERY_S`` or more of task time, and at the end; a pass is scaled by
the mean of its samples. Set-up time is scaled by a sample taken right
after it. The raw times are in the report too.

Exit codes: 0 when the run finished (failed checks are counted, not fatal),
2 when the checkout holds no crda sources.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

PROBE_EVERY_S = 0.3  # task time between two host-speed samples


def _import_crda() -> None:
    src = ROOT / "src"
    if not (src / "crda" / "__init__.py").is_file():
        sys.stderr.write(f"no crda sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import crda

    if Path(crda.__file__).resolve().parent != (src / "crda").resolve():
        sys.stderr.write(f"imported crda from {crda.__file__}, not from {src}\n")
        sys.exit(2)


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _run_pass(tasks: list, tracer, probe) -> tuple[list, float, float, dict[str, float]]:
    """Run every task once, in order.

    Returns (task, result, traceback) triples, the pass's task time, that
    time in reference-host seconds, and the task time per task family (the
    first word of a task's name). Probe samples between tasks are not
    part of the task time.
    """
    restore = None
    if tracer is not None:
        from tracing import instrument

        restore = instrument(tracer)
    results = []
    spent: dict[str, float] = {}
    elapsed = stretch = 0.0
    samples = [probe.sample()]
    for task in tasks:
        if tracer is not None:
            tracer.run_id += 1
        task_started = time.perf_counter()
        try:
            results.append((task, task.run(), None))
        except Exception:  # a failed task is counted, and the run goes on
            results.append((task, None, traceback.format_exc()))
        took = time.perf_counter() - task_started
        family = task.name.split()[0]
        spent[family] = spent.get(family, 0.0) + took
        elapsed += took
        stretch += took
        if stretch >= PROBE_EVERY_S:
            samples.append(probe.sample())
            stretch = 0.0
    if stretch:
        samples.append(probe.sample())
    scaled = probe.scale(elapsed, samples)
    if restore is not None:
        restore()
    return results, elapsed, scaled, spent


def _check(results: list) -> int:
    """Run each result's check; return how many failed."""
    failed = 0
    for task, result, error in results:
        ok = False
        if error is None:
            try:
                ok = bool(task.check(result))
            except Exception:
                error = traceback.format_exc()
        if not ok:
            failed += 1
            sys.stderr.write(f"check failed: {task.name}\n{error or ''}")
    return failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_crda()
    import numpy as np

    from hostprobe import HostProbe
    from workloads import WORKLOADS

    build, pass_seconds = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    record = tracer.count if tracer else (lambda name, amount=1: None)
    tasks = build(np.random.default_rng(args.seed), record)
    raw_setup_s = time.monotonic() - args.spawned
    probe = HostProbe()
    setup_s = probe.scale(raw_setup_s, [probe.sample()])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    passes = max(1, args.seconds // pass_seconds)
    pass_s = []
    raw_pass_s = []
    family_s: dict[str, list[float]] = {}
    peak_rss_mb = None
    attempted = failed = 0
    for _ in range(passes):
        results, elapsed, scaled, spent = _run_pass(tasks, tracer, probe)
        raw_pass_s.append(elapsed)
        pass_s.append(scaled)
        for family, seconds in spent.items():
            family_s.setdefault(family, []).append(seconds)
        if peak_rss_mb is None:
            peak_rss_mb = _max_rss_mb()
        # Checks run between passes, untimed; results are not kept.
        attempted += len(results)
        failed += _check(results)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "passes": passes,
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "wall_s": sum(pass_s),
        "raw_wall_s": sum(raw_pass_s),
        "slowness": [r / p for r, p in zip(raw_pass_s, pass_s)],
        "family_s": {f: sum(v) for f, v in family_s.items()},
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "machine": machine_info(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path, {k: v for k, v in report.items() if k != "layers"})
        report["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
