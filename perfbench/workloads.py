"""The benchmark's workloads: fixed task lists over crda's public API.

A workload is built from a seed, which draws the sweep times, initial bit
strings, random Pauli sums and solver seeds; building it is the set-up the
benchmark times. It yields its tasks in a fixed order. A task is one call
into crda plus the check of its result. Passes over the list are timed;
the checks run between passes, untimed.

Library functions are looked up on their modules at call time, so that a
traced run sees the wrapped versions.

* ``symbolic`` is exact Pauli algebra without matrices: sum construction,
  products, commutators, ``toggle``, the error sweeps and the command line.
* ``norms`` is spectral norms of split commutators on both sides of the
  dense limit: dense eigensolves at n = 10, matrix-free Lanczos at 14 and
  16 qubits.
* ``dynamics`` is time evolution: dense and sparse ``simulate``, exact
  block unitaries, and Magnus propagation of time-dependent segments.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import crda.cli as cli
import crda.compiler as compiler
import crda.device as device
import crda.errors as errors
import crda.frames as frames
import crda.hamiltonians as hamiltonians
import crda.pauli as pauli

G = frames.GateLayerKind
K = hamiltonians.HamiltonianKind
M = compiler.ModelKind

DELTA = 10.0
PERIOD = 2.0 * math.pi / DELTA


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _sweep_times(rng: np.random.Generator, count: int) -> list[float]:
    # Inside one detuning period, away from the zeros of sin(delta t / 2).
    return sorted(float(t) for t in rng.uniform(0.05 * PERIOD, 0.95 * PERIOD, count))


def _rel_close(value: float, target: float, rtol: float) -> bool:
    return abs(value - target) <= rtol * abs(target)


# ----------------------------------------------------------------------
# symbolic
# ----------------------------------------------------------------------


def _random_sum(rng: np.random.Generator, n: int, terms: int) -> pauli.PauliSum:
    masks = rng.integers(0, 1 << n, size=(terms, 2))
    coeffs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    return pauli.PauliSum(
        n, {(int(x), int(z)): complex(c) for (x, z), c in zip(masks, coeffs)}
    )


def _cli_output(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _dyson_task(n: int, t: float) -> Task:
    p = device.DeviceParams.uniform_chain(n, g=1.0, delta=DELTA, Omega=1e-8 * DELTA)
    target = errors.dyson_norm_formula(1.0, DELTA, n, t)
    return Task(
        f"dyson n={n} t={t:.6f}",
        lambda: errors.dyson_propagator_diff(p, t),
        lambda rep: _rel_close(rep.entry("propagator_diff_norm").value, target, 1e-6),
    )


def _synthesis_task(model: str, n: int, t: float) -> Task:
    p = device.DeviceParams.uniform_chain(n, g=1.0, delta=DELTA, Omega=1e-3 * DELTA)

    def check(rep) -> bool:
        closed = rep.entry("closed_form_time_resolved").value
        return _rel_close(rep.entry("frobenius_norm").value, closed, 1e-9)

    return Task(
        f"synthesis {model} n={n} t={t:.6f}",
        lambda: errors.synthesis_norm(model, p, t),
        check,
    )


def _table1_task(nx: int, ny: int) -> Task:
    lat = device.Lattice.square(nx, ny)
    return Task(
        f"table1 {nx}x{ny}",
        lambda: errors.table1_check(lat, j=1.0),
        lambda rep: rep.passed,
    )


def _algebra_task(index: int, a: pauli.PauliSum, b: pauli.PauliSum) -> Task:
    ba = functools.cache(lambda: b @ a)  # computed at the first check
    verified: list = []

    def check(result) -> bool:
        # A result equal to one already verified needs no second subtraction.
        if verified and result == verified[0]:
            return True
        ab, comm = result
        ok = (ab - ba()).allclose(comm, tol=1e-12)
        if ok and not verified:
            verified.append(result)
        return ok

    return Task(
        f"random pair {index}: {len(a)}x{len(b)} terms on {a.n} sites",
        lambda: (a @ b, pauli.commutator(a, b)),
        check,
    )


# Every gate kind toggles the 2D commutator; the undo list conjugates back.
# SPHASE has no catalogued inverse, and S^3 = -S^dagger toggles the same.
_TOGGLE_LAYERS = [
    frames.GateLayer(G.HADAMARD, "all"),
    frames.GateLayer(G.RX90, "even"),
    frames.GateLayer(G.SPHASE, "odd"),
    frames.GateLayer(G.UE, "all"),
]
_UNDO_LAYERS = [
    frames.GateLayer(G.UEDAG, "all"),
    *[frames.GateLayer(G.SPHASE, "odd")] * 3,
    frames.GateLayer(G.RX90DAG, "even"),
    frames.GateLayer(G.HADAMARD, "all"),
]


def _toggle_task(nx: int, ny: int) -> Task:
    lat = device.Lattice.square(nx, ny)
    comm = pauli.commutator(
        hamiltonians.build_canonical(K.H_I, lat), hamiltonians.build_canonical(K.H_II, lat)
    )

    def check(out) -> bool:
        back = frames.toggle_chain(out, _UNDO_LAYERS)
        return (
            out.num_terms() == comm.num_terms()
            and math.isclose(out.frobenius_norm(), comm.frobenius_norm(), rel_tol=1e-12)
            and back.allclose(comm, tol=1e-12)
        )

    return Task(
        f"toggle_chain {nx}x{ny} commutator",
        lambda: frames.toggle_chain(comm, _TOGGLE_LAYERS),
        check,
    )


def _cli_task(argv: list[str], record: Callable[[str, float], None]) -> Task:
    rerun = functools.cache(lambda: _cli_output(argv))

    def run():
        code, text = _cli_output(argv)
        record("cli.bytes", len(text.encode()))
        return code, text

    def check(result) -> bool:
        code, text = result
        json.loads(text)
        return code == 0 and result == rerun()

    return Task("crda " + " ".join(argv), run, check)


def symbolic(rng: np.random.Generator, record: Callable[[str, float], None]) -> list[Task]:
    tasks = [_dyson_task(n, t) for n in range(2, 7) for t in _sweep_times(rng, 10)]
    tasks += [
        _synthesis_task(model, n, t)
        for model in ("control", "xy")
        for n in range(2, 9)
        for t in _sweep_times(rng, 12)
    ]
    tasks += [_table1_task(nx, ny) for nx, ny in ((6, 6), (8, 6), (8, 8))]
    tasks += [
        _algebra_task(i, _random_sum(rng, 40, 300), _random_sum(rng, 40, 300))
        for i in range(2)
    ]
    tasks += [_toggle_task(nx, ny) for nx, ny in ((8, 8), (12, 12))]
    blocks = int(rng.integers(2, 9))
    t_max = float(rng.uniform(0.5, 1.0)) * PERIOD
    tasks += [
        _cli_task(argv, record)
        for argv in (
            ["hamiltonian", "--kind", "h_i", "--nx", "8", "--ny", "8"],
            ["compile", "--model", "heisenberg", "--n", "12", "--blocks", str(blocks), "--fuse"],
            [
                "errors", "--which", "synthesis", "--model", "control", "--n", "6",
                "--omega", "0.1", "--sweep", f"t=0:{t_max!r}:24", "--threads", "2",
            ],
        )
    ]
    return tasks


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

# Spectral norms of the split commutators, computed once by an independent
# route: scipy.sparse.linalg.eigsh(k=1, which="LM", tol=1e-13) on the sparse
# matrix of i*C from PauliSum.to_sparse(), seeded random start vector.
REFERENCE_NORMS = {
    ("heis_da", "10"): 20.407917008073817,
    ("heis_digital", "10"): 40.59207275507165,
    ("heis_da", "14"): 29.790025536509006,
    ("heis_digital", "14"): 59.13460393383386,
    ("xy2d_da", "4x4"): 59.747434828689315,
    ("xy2d_digital", "4x4"): 126.80164143829568,
}


def _norm_task(model: str, size: str, solver_seed: int) -> Task:
    if "x" in size:
        nx, ny = (int(v) for v in size.split("x"))
        lat = device.Lattice.square(nx, ny)
    else:
        lat = device.Lattice.chain(int(size))

    def check(rep) -> bool:
        value = rep.entry("commutator_spectral_norm").value
        return rep.passed and _rel_close(value, REFERENCE_NORMS[(model, size)], 1e-7)

    return Task(
        f"{model}@{size} commutator norm",
        lambda: errors.trotter_commutator(model, lat, j=1.0, seed=solver_seed),
        check,
    )


def norms(rng: np.random.Generator, record: Callable[[str, float], None]) -> list[Task]:
    return [
        _norm_task(model, size, int(rng.integers(1, 2**31)))
        for model, size in REFERENCE_NORMS
    ]


# ----------------------------------------------------------------------
# dynamics
# ----------------------------------------------------------------------


def _basis_state(rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
    index = int(rng.integers(0, 1 << n))
    psi = np.zeros(1 << n, dtype=complex)
    psi[index] = 1.0
    return psi, index


def _z_observables(n: int) -> list[pauli.PauliSum]:
    return [pauli.PauliSum.from_sites(n, {k: "Z"}) for k in range(n)]


def _unit_norms(trace) -> bool:
    return bool(np.all(np.abs(trace.norms - 1.0) <= 1e-10))


def _heisenberg_task(rng: np.random.Generator) -> Task:
    n = 10
    model = compiler.TargetModel(M.HEISENBERG_1D, device.Lattice.chain(n), tau=0.1, repetitions=4)
    psi0, _ = _basis_state(rng, n)
    obs = _z_observables(n)

    def run():
        schedule = compiler.compile_model(model, fuse_layers=True)
        return schedule, compiler.simulate(schedule, psi0, obs)

    def check(result) -> bool:
        schedule, trace = result
        sparse = compiler.simulate(schedule, psi0, obs, dense_limit=n - 1)
        return _unit_norms(trace) and np.allclose(
            trace.expectations, sparse.expectations, rtol=0.0, atol=1e-9
        )

    return Task("heisenberg n=10 compile --fuse + simulate (dense)", run, check)


def _xy2d_task(rng: np.random.Generator) -> Task:
    model = compiler.TargetModel(M.XY_2D, device.Lattice.square(4, 4), tau=0.1, repetitions=3)
    n = model.lattice.n_sites
    psi0, index = _basis_state(rng, n)
    # xx and yy terms flip spins in pairs, so every segment keeps z parity.
    obs = [*_z_observables(n), pauli.PauliSum.from_pattern("Z" * n)]
    parity = (-1) ** index.bit_count()

    def run():
        return compiler.simulate(compiler.compile_model(model), psi0, obs)

    def check(trace) -> bool:
        return _unit_norms(trace) and np.allclose(
            trace.expectations[:, -1], parity, rtol=0.0, atol=1e-9
        )

    return Task("xy2d 4x4 compile + simulate (sparse)", run, check)


def _block_task(kind: compiler.ModelKind, n: int, tau: float) -> Task:
    model = compiler.TargetModel(kind, device.Lattice.chain(n), tau=tau)

    def check(u) -> bool:
        target = pauli.expm_hermitian(compiler.target_hamiltonian(model), tau)
        return frames.phase_insensitive_distance(u, target) <= 1e-10

    return Task(
        f"block_unitary {kind.value} n={n} tau={tau:.4f}",
        lambda: compiler.block_unitary(compiler.compile_model(model)),
        check,
    )


def _realistic_task(rng: np.random.Generator, kind: compiler.ModelKind) -> Task:
    n = 4
    p = device.DeviceParams.uniform_chain(n, g=1.0, delta=DELTA, Omega=0.4)
    model = compiler.TargetModel(kind, device.Lattice.chain(n), tau=0.2, repetitions=2)
    psi0, _ = _basis_state(rng, n)
    obs = _z_observables(n)

    def run():
        return compiler.simulate(compiler.compile_model(model, realistic=True, device=p), psi0, obs)

    def check(trace) -> bool:
        schedule = compiler.compile_model(model, realistic=True, device=p)
        finer = compiler.simulate(schedule, psi0, obs, tol=1e-12)
        return _unit_norms(trace) and np.allclose(
            trace.expectations, finer.expectations, rtol=0.0, atol=1e-7
        )

    return Task(f"realistic {kind.value} n=4 simulate (Magnus)", run, check)


def _verify_task(mode: str) -> Task:
    # Criterion-9 device: g/delta = 0.02, Omega/delta = 0.05, delta t = 20 pi.
    n, delta, base = 2, 5.0, 40.0
    omega_q = np.array([base + (n - k) * delta for k in range(1, n + 1)])
    p = device.DeviceParams(
        n=n,
        omega_q=omega_q,
        omega=omega_q - delta,
        Omega=np.full(n, 0.05 * delta),
        phi=np.zeros(n),
        g=np.full(n - 1, 0.02 * delta),
    )
    t_final = 20 * math.pi / delta

    def check(rep) -> bool:
        return rep.distance <= 0.05 and rep.integrator["residual"] < 1e-8

    return Task(
        f"verify_effective {mode} n=2",
        lambda: frames.verify_effective(p, t_final, mode=mode),
        check,
    )


def dynamics(rng: np.random.Generator, record: Callable[[str, float], None]) -> list[Task]:
    tasks = [_heisenberg_task(rng), _xy2d_task(rng)]
    tasks += [
        _block_task(kind, n, float(rng.uniform(0.1, 5.0)))
        for kind in (M.ISING_1D, M.XY_1D)
        for n in range(2, 9)
    ]
    tasks += [_realistic_task(rng, kind) for kind in (M.ISING_1D, M.XY_1D)]
    tasks += [_verify_task(mode) for mode in ("lab", "rotating")]
    return tasks


# name -> (task-list function, pass_seconds); a run makes
# max(1, seconds // pass_seconds) passes over the list. pass_seconds is near
# what one pass takes at the seed commit on a 2-core machine (it moves with
# the host's load), so that a 30-second run makes 7, 2 and 3 passes.
WORKLOADS = {
    "symbolic": (symbolic, 4),
    "norms": (norms, 15),
    "dynamics": (dynamics, 9),
}
