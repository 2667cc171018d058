"""Property tests of schedule simulation and Magnus propagation against dense oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_oracle, layer_oracle
from crda import compiler, frames
from crda.compiler import (
    AnalogSegment,
    ModelKind,
    Schedule,
    TargetModel,
    compile_model,
    simulate,
)
from crda.device import DeviceParams, Lattice
from crda.frames import GateLayer, GateLayerKind as G, propagate_unitary
from crda.hamiltonians import lab_frame_hamiltonian, rotating_frame_hamiltonian
from crda.pauli import DenseLimitError, PauliSum


def _support_sites(support, n):
    """1-based sites of a layer support, resolved independently of the package."""
    if isinstance(support, tuple):
        return set(support)
    parity = {"all": None, "even": 0, "odd": 1}[support]
    return {k for k in range(1, n + 1) if parity is None or k % 2 == parity}


def _oracle_rows(schedule, psi0, observables):
    """Per-block expectations from dense expm of each segment and oracle gate layers."""
    n = schedule.n
    mats = [
        layer_oracle(step.kind.value, _support_sites(step.support, n), n)
        if isinstance(step, GateLayer)
        else scipy.linalg.expm(-1j * step.duration * dense_oracle(step.analog))
        for step in schedule.steps
    ]
    obs = [dense_oracle(o) for o in observables]
    psi, rows = psi0, []
    for _ in range(schedule.repetitions):
        for m in mats:
            psi = m @ psi
        rows.append([np.vdot(psi, o @ psi).real for o in obs])
    return np.array(rows)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    if kind is ModelKind.XY_2D:
        nx, ny, boundary = draw(
            st.sampled_from([(2, 2, "periodic"), (2, 2, "open"), (2, 3, "open"), (3, 2, "open")])
        )
        lattice = Lattice.square(nx, ny, boundary=boundary)
    else:
        n = draw(st.integers(2, 6))
        periodic = n % 2 == 0 and n >= 4 and draw(st.booleans())
        lattice = Lattice.chain(n, "periodic" if periodic else "open")
    tau = draw(st.floats(0.05, 1.5))
    reps = draw(st.integers(1, 3))
    return TargetModel(kind, lattice, tau=tau, repetitions=reps)


@given(models(), st.booleans(), st.integers(0, 2**12 - 1))
def test_simulate_matches_dense_oracle(model, fused, seed):
    schedule = compile_model(model, fuse_layers=fused)
    n = schedule.n
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[seed % (1 << n)] = 1.0
    observables = [PauliSum.from_sites(n, {k: "Z"}) for k in range(n)]
    observables.append(PauliSum.from_pattern("X" * n) + PauliSum.from_pattern("Y" + "Z" * (n - 1)))
    trace = simulate(schedule, psi0, observables)
    want = _oracle_rows(schedule, psi0, observables)
    assert np.allclose(trace.expectations, want, rtol=0.0, atol=1e-10)
    assert np.allclose(trace.norms, 1.0, rtol=0.0, atol=1e-10)


def _sequential_propagator(h, t_final, tol, max_halvings=14):
    """The step-by-step Magnus loop: one 4x4 expm and one product per step."""
    mats = [(dense_oracle(ps), f) for ps, f in h.pieces]
    dim = 1 << h.n
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0

    def ham(t):
        return sum(f(t) * m for m, f in mats)

    def run(nsteps):
        hstep = t_final / nsteps
        w = math.sqrt(3.0) * hstep * hstep / 12.0
        u = np.eye(dim, dtype=complex)
        for i in range(nsteps):
            a1 = -1j * ham(i * hstep + c1 * hstep)
            a2 = -1j * ham(i * hstep + c2 * hstep)
            u = scipy.linalg.expm(0.5 * hstep * (a1 + a2) + w * (a2 @ a1 - a1 @ a2)) @ u
        return u

    scale = max(np.linalg.norm(ham(f * t_final), 2) for f in (0.0, 0.37, 0.74))
    h0 = min(abs(t_final), 0.05 / scale)
    if h.max_frequency > 0:
        h0 = min(h0, (2.0 * math.pi / h.max_frequency) / 40.0)
    nsteps = max(1, math.ceil(abs(t_final) / h0))
    u_prev = run(nsteps)
    for _ in range(max_halvings):
        nsteps *= 2
        u_next = run(nsteps)
        if np.linalg.norm(u_next - u_prev, 2) < tol:
            return u_next, nsteps
        u_prev = u_next
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("chunk_bytes", [None, 16 * 4 * 4 * 7])
@pytest.mark.parametrize("mode", ["lab", "rotating"])
def test_batched_magnus_matches_sequential_steps(monkeypatch, chunk_bytes, mode):
    if chunk_bytes is not None:  # seven steps per chunk: many chunks, odd trees
        monkeypatch.setattr(frames, "_MAGNUS_CHUNK_BYTES", chunk_bytes)
    p = DeviceParams.cr_chain(np.array([45.0, 40.0]), g=0.1, Omega=0.25)
    h = lab_frame_hamiltonian(p) if mode == "lab" else rotating_frame_hamiltonian(p)
    t_final, tol = 0.4, 1e-9
    u, info = propagate_unitary(h, t_final, tol=tol)
    want, steps = _sequential_propagator(h, t_final, tol)
    assert info["steps"] == steps
    assert np.abs(u - want).max() <= 1e-12


def test_equal_segments_share_one_generator(monkeypatch):
    # to_dense goes through to_sparse, so the time-dependent case counts
    # propagate_unitary calls instead.
    calls = {"to_sparse": 0, "propagate_unitary": 0}
    to_sparse = PauliSum.to_sparse
    propagate = compiler.propagate_unitary

    def counted_to_sparse(self):
        calls["to_sparse"] += 1
        return to_sparse(self)

    def counted_propagate(*args, **kwargs):
        calls["propagate_unitary"] += 1
        return propagate(*args, **kwargs)

    monkeypatch.setattr(PauliSum, "to_sparse", counted_to_sparse)
    monkeypatch.setattr(compiler, "propagate_unitary", counted_propagate)
    n = 4
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0b0110] = 1.0
    obs = [PauliSum.from_sites(n, {0: "Z"})]
    heisenberg = TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(n), tau=0.2, repetitions=3)
    schedule = compile_model(heisenberg)
    assert len(schedule.segments()) == 3
    simulate(schedule, psi0, obs)
    assert calls == {"to_sparse": 1, "propagate_unitary": 0}
    h = schedule.segments()[0].analog
    timed = Schedule(
        n, (AnalogSegment(0.2, "all", h), GateLayer(G.HADAMARD), AnalogSegment(0.3, "all", h),
            AnalogSegment(0.2, "all", h)), repetitions=2,
    )
    trace = simulate(timed, psi0, obs)
    assert calls["to_sparse"] == 3  # one more per distinct duration
    assert np.allclose(trace.expectations, _oracle_rows(timed, psi0, obs), rtol=0.0, atol=1e-12)
    device = DeviceParams.uniform_chain(n, g=1.0, delta=10.0, Omega=0.4)
    xy = TargetModel(ModelKind.XY_1D, Lattice.chain(n), tau=0.05, repetitions=2)
    realistic = compile_model(xy, realistic=True, device=device)
    assert len(realistic.segments()) == 2
    simulate(realistic, psi0, obs)
    assert calls["propagate_unitary"] == 1


def test_forty_qubit_simulation_refused_before_allocating():
    schedule = compile_model(TargetModel(ModelKind.ISING_1D, Lattice.chain(40)))
    obs = [PauliSum.from_sites(40, {0: "Z"})]
    tracemalloc.start()
    try:
        with pytest.raises(DenseLimitError, match="GiB"):
            simulate(schedule, np.zeros(1, dtype=complex), obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
