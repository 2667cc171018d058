"""crda benchmark runner.

    python3 perfbench/run.py --workload {symbolic,norms,dynamics} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and imports crda from its ``src/``.
Every workload process starts fresh (see ``worker.py``); this script uses
the standard library only, so its own start-up is not part of set-up time.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: time of the timed phase, tracing off. The timed phase makes
  ``max(1, S // pass_seconds)`` passes over the workload's fixed task
  list; the checks between passes are not timed.
* ``setup_s``: median over five fresh processes of the time from process
  start to inputs ready (interpreter start, imports, seeded inputs).
* ``peak_rss_mb``: ``ru_maxrss`` of the timed process after its first
  pass, before any check has run.
* ``ops``: tasks attempted. Tasks whose check failed are ``failed``.

``wall_s`` and ``setup_s`` are in reference-host seconds: measured time
scaled by the speed of the host at the time, from fixed kernels timed
between the tasks (see ``hostprobe.py``). The ``detail`` line gives the
raw times as well.

``--trace 1`` runs the workload untraced and then traced, each in a fresh
process, and prints the per-layer metrics of the traced timed phase plus
``trace.overhead_s``, traced minus untraced ``wall_s``. Spans go to
``perfbench/out/``.

The last line of standard output is the JSON result. Before it, a line
starting with ``machine`` records the machine, library versions and BLAS
threads, and a line starting with ``detail`` gives each process's pass
times and its timed-phase time per task family.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("symbolic", "norms", "dynamics")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    """Environment that runs BLAS on one thread.

    On a 2-core machine a second OpenBLAS thread mostly spin-waits (norms:
    25 s of CPU for 14.2 s of wall time, against 14.2 s single-threaded)
    and ties every timing to the load on the other core.
    """
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_ENV})
    return env


def _run_worker(args, deadline: float, trace: int, setup_only: bool = False) -> dict:
    spawned = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--spawned", repr(spawned),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "crda" / "__init__.py").is_file():
        sys.stderr.write(f"no crda sources under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            plain = _run_worker(args, deadline, trace=0)
            traced = _run_worker(args, deadline, trace=1)
            runs = [plain, traced]
            metrics = {
                name: _metric(value, LAYER_METRICS[name][0])
                for name, value in traced["layers"].items()
            }
            metrics["trace.overhead_s"] = _metric(traced["wall_s"] - plain["wall_s"], "s")
        else:
            setups = [
                _run_worker(args, deadline, trace=0, setup_only=True)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            timed = _run_worker(args, deadline, trace=0)
            runs = [timed]
            setups = [s["setup_s"] for s in setups] + [timed["setup_s"]]
            metrics = {
                "wall_s": _metric(timed["wall_s"], "s"),
                "setup_s": _metric(statistics.median(setups), "s"),
                "peak_rss_mb": _metric(timed["peak_rss_mb"], "MB"),
                "ops": _metric(timed["attempted"], "count"),
            }
    except WorkerError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("machine " + json.dumps(runs[-1]["machine"], sort_keys=True))
    detail_keys = (
        "trace", "passes", "pass_s", "raw_pass_s", "slowness", "family_s",
        "setup_s", "raw_setup_s", "trace_file",
    )
    print("detail " + json.dumps([{k: r[k] for k in detail_keys if k in r} for r in runs]))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
