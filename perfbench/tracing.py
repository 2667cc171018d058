"""Span tracer for the benchmark's traced runs.

The tracer wraps crda's public functions and methods in place, from the
benchmark's side: a wrapped function is rebound in every crda module that
binds it, so calls between crda modules are traced as well as the
benchmark's own calls. Spans (name, start, end, parent, run id) and counts
stay in memory until the run writes them out.

A span's self time is its duration minus the part of that interval its
child spans cover. Spans opened on a pool thread with nothing open on that
thread take the main thread's innermost span as parent, so the command
line's threaded sweeps count against ``cli.main``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable

# Per-layer metrics of a traced run, in report order: name -> (unit, source,
# key). "self" sums the self time of spans named key, "calls" counts them,
# "count" reads the counter key that the hooks and workloads record.
LAYER_METRICS = {
    "pauli.construct.count": ("count", "count", "pauli.construct"),
    "pauli.algebra.s": ("s", "self", "pauli.algebra"),
    "pauli.apply.count": ("count", "calls", "pauli.apply"),
    "pauli.apply.ms": ("ms", "self", "pauli.apply"),
    "pauli.norm.dense.s": ("s", "self", "pauli.norm.dense"),
    "pauli.norm.krylov.s": ("s", "self", "pauli.norm.krylov"),
    "pauli.norm.matvecs": ("count", "count", "pauli.norm.matvecs"),
    "pauli.to_dense.s": ("s", "self", "pauli.to_dense"),
    "pauli.to_sparse.s": ("s", "self", "pauli.to_sparse"),
    "pauli.expm.s": ("s", "self", "pauli.expm"),
    "pauli.expm.count": ("count", "calls", "pauli.expm"),
    "hamiltonians.build.s": ("s", "self", "hamiltonians.build"),
    "hamiltonians.td_eval.count": ("count", "count", "hamiltonians.td_eval"),
    "frames.toggle.s": ("s", "self", "frames.toggle"),
    "frames.apply_layer.s": ("s", "self", "frames.apply_layer"),
    "frames.apply_layer.count": ("count", "calls", "frames.apply_layer"),
    "frames.magnus.s": ("s", "self", "frames.magnus"),
    "frames.magnus.steps": ("count", "count", "frames.magnus.steps"),
    "frames.verify.s": ("s", "self", "frames.verify"),
    "compiler.compile.s": ("s", "self", "compiler.compile"),
    # gate layers after fuse() over layers before it; 0 when nothing was fused
    "compiler.fuse.layer_ratio": ("ratio", "ratio", "compiler.fuse.layers"),
    "compiler.simulate.dense.s": ("s", "self", "compiler.simulate.dense"),
    "compiler.simulate.sparse.s": ("s", "self", "compiler.simulate.sparse"),
    "compiler.block_unitary.s": ("s", "self", "compiler.block_unitary"),
    "errors.dyson.s": ("s", "self", "errors.dyson"),
    "errors.synthesis.s": ("s", "self", "errors.synthesis"),
    "errors.table1.s": ("s", "self", "errors.table1"),
    "errors.trotter.s": ("s", "self", "errors.trotter"),
    "cli.main.s": ("s", "self", "cli.main"),
    "cli.bytes": ("bytes", "count", "cli.bytes"),
}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """In-memory spans and counters; safe to use from pool threads."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        # frame: name, id, parent frame, child intervals, start
        frame = [name, next(self._ids), parent, [], time.perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        name, span_id, parent, children, start = frame
        self._stack().pop()
        self_time = (end - start) - _covered(children)
        with self._lock:
            self.self_s[name] += self_time
            self.calls[name] += 1
            self.spans.append(
                (span_id, name, start, end, parent[1] if parent else 0, self.run_id)
            )
        if parent is not None:
            parent[3].append((start, end))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def layer_metrics(self) -> dict[str, float]:
        """Every entry of LAYER_METRICS, summed over the timed phase."""
        out = {}
        for name, (unit, source, key) in LAYER_METRICS.items():
            if source == "ratio":
                before = self.counts[key + "_in"]
                out[name] = self.counts[key + "_out"] / before if before else 0.0
                continue
            total = {"self": self.self_s, "calls": self.calls, "count": self.counts}[source][key]
            out[name] = total * (1e3 if unit == "ms" else 1.0)
        return out

    def write(self, path, meta: dict) -> None:
        """Write spans and counters as gzipped JSON."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "start", "end", "parent", "run"],
            "names": names,
            "spans": [
                [sid, index[name], start, end, parent, run]
                for sid, name, start, end, parent, run in self.spans
            ],
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap crda's public layer boundaries so they report to ``tracer``.

    Returns a function that puts every original binding back.
    """
    import crda
    import crda.cli as cli
    import crda.compiler as compiler
    import crda.device as device
    import crda.errors as errors
    import crda.frames as frames
    import crda.hamiltonians as hamiltonians
    import crda.pauli as pauli

    modules = (crda, pauli, device, hamiltonians, frames, compiler, errors, cli)
    originals: list[tuple[object, str, object]] = []

    def replace(owner, attr, replacement) -> None:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def rebind(original, replacement) -> None:
        for mod in modules:
            hits = [attr for attr, value in vars(mod).items() if value is original]
            for attr in hits:
                replace(mod, attr, replacement)

    def span(fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the bound arguments."""
        sig = inspect.signature(fn) if callable(name) or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            frame = tracer.open(name(bound.arguments) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(result, bound.arguments)
            return result

        return traced

    def counted(fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return traced

    def wrap_function(mod, attr, name, after=None) -> None:
        original = getattr(mod, attr)
        rebind(original, span(original, name, after))

    def wrap_method(cls, attr, name) -> None:
        replace(cls, attr, span(getattr(cls, attr), name))

    PauliSum = pauli.PauliSum
    replace(PauliSum, "__init__", counted(PauliSum.__init__, "pauli.construct"))
    for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__", "dagger"):
        wrap_method(PauliSum, attr, "pauli.algebra")
    for attr in ("commutator", "multiply"):
        wrap_function(pauli, attr, "pauli.algebra")
    wrap_method(PauliSum, "apply", "pauli.apply")
    wrap_method(PauliSum, "to_dense", "pauli.to_dense")
    wrap_method(PauliSum, "to_sparse", "pauli.to_sparse")
    wrap_function(pauli, "expm_hermitian", "pauli.expm")

    original_norm = pauli.spectral_norm
    norm_sig = inspect.signature(original_norm)

    @functools.wraps(original_norm)
    def traced_norm(*args, **kwargs):
        bound = norm_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        h, limit = bound.arguments["h"], bound.arguments["dense_limit"]
        before = tracer.calls["pauli.apply"]
        frame = tracer.open("pauli.norm.krylov" if h.n > limit else "pauli.norm.dense")
        try:
            return original_norm(*args, **kwargs)
        finally:
            tracer.close(frame)
            tracer.count("pauli.norm.matvecs", tracer.calls["pauli.apply"] - before)

    rebind(original_norm, traced_norm)

    for attr in (
        "build_canonical",
        "build_qf_effective",
        "lab_frame_hamiltonian",
        "rotating_frame_hamiltonian",
        "org_hamiltonian",
        "delta_hamiltonian",
        "build_lab_frame",
        "build_org",
        "build_delta",
        "translate_2d",
    ):
        wrap_function(hamiltonians, attr, "hamiltonians.build")
    TDH = hamiltonians.TimeDependentHamiltonian
    replace(TDH, "at", counted(TDH.at, "hamiltonians.td_eval"))

    wrap_function(frames, "toggle", "frames.toggle")
    wrap_function(frames, "toggle_chain", "frames.toggle")
    wrap_function(frames, "apply_layer", "frames.apply_layer")
    wrap_function(
        frames,
        "propagate_unitary",
        "frames.magnus",
        after=lambda result, _: tracer.count("frames.magnus.steps", result[1]["steps"]),
    )
    wrap_function(frames, "verify_effective", "frames.verify")

    def gate_layers(schedule) -> int:
        return sum(isinstance(step, frames.GateLayer) for step in schedule.steps)

    def fused(result, arguments) -> None:
        tracer.count("compiler.fuse.layers_in", gate_layers(arguments["schedule"]))
        tracer.count("compiler.fuse.layers_out", gate_layers(result))

    wrap_function(compiler, "compile_model", "compiler.compile")
    wrap_function(compiler, "fuse", "compiler.compile", after=fused)
    wrap_function(
        compiler,
        "simulate",
        lambda a: "compiler.simulate."
        + ("dense" if a["schedule"].n <= a["dense_limit"] else "sparse"),
    )
    wrap_function(compiler, "block_unitary", "compiler.block_unitary")

    wrap_function(errors, "dyson_propagator_diff", "errors.dyson")
    wrap_function(errors, "synthesis_norm", "errors.synthesis")
    wrap_function(errors, "table1_check", "errors.table1")
    wrap_function(errors, "trotter_commutator", "errors.trotter")

    wrap_function(cli, "main", "cli.main")

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore
