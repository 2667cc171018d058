"""Property tests of schedule simulation and Magnus propagation against dense oracles."""

import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import dense_oracle, layer_oracle, reference_chebyshev, sinusoid_product, worker_tasks
from crda import compiler, frames, pauli
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
from crda.hamiltonians import TimeDependentHamiltonian, lab_frame_hamiltonian, rotating_frame_hamiltonian
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


def _sequential_run(h, t_final, nsteps):
    """``nsteps`` Magnus steps one at a time: one ``scipy.linalg.expm`` and one product per step."""
    mats = [(dense_oracle(ps), w) for ps, w in h.pieces]
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0

    def ham(t):
        return sum(sinusoid_product(w, t) * m for m, w in mats)

    hstep = t_final / nsteps
    w = math.sqrt(3.0) * hstep * hstep / 12.0
    u = np.eye(1 << h.n, dtype=complex)
    for i in range(nsteps):
        a1 = -1j * ham(i * hstep + c1 * hstep)
        a2 = -1j * ham(i * hstep + c2 * hstep)
        u = scipy.linalg.expm(0.5 * hstep * (a1 + a2) + w * (a2 @ a1 - a1 @ a2)) @ u
    return u


def _sequential_propagator(h, t_final, tol, max_halvings=14):
    """The step-doubling loop over :func:`_sequential_run`, and its final step count.

    It starts from the plan's first step count (``frames._magnus_plan``);
    the integration shares no code with crda's.
    """
    nsteps = frames._magnus_plan(h, t_final, tol).steps
    u_prev = _sequential_run(h, t_final, nsteps)
    for _ in range(max_halvings):
        nsteps *= 2
        u_next = _sequential_run(h, t_final, nsteps)
        if np.linalg.norm(u_next - u_prev, 2) < tol:
            return u_next, nsteps
        u_prev = u_next
    raise AssertionError("reference did not converge")


@st.composite
def generators(draw):
    """1-2 qubit generators: 1-3 pieces of 1-2 real-weighted strings, each under 1-3 sinusoids."""
    n = draw(st.integers(1, 2))
    strings = st.builds(
        PauliSum.from_pattern,
        st.text("IXYZ", min_size=n, max_size=n),
        st.floats(-2.0, 2.0, allow_subnormal=False),
    )
    factor = st.tuples(
        st.sampled_from(["cos", "sin"]), st.floats(-4.0, 4.0), st.floats(-math.pi, math.pi)
    )
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(strings, min_size=1, max_size=2))
        weight = tuple(draw(st.lists(factor, min_size=1, max_size=3)))
        pieces.append((sum(terms[1:], terms[0]), weight))
    return TimeDependentHamiltonian(n, tuple(pieces))


@given(generators(), st.floats(0.1, 1.0), st.sampled_from([1e-6, 1e-8]))
def test_magnus_ladder_meets_tol_against_a_finer_reference(h, t_final, tol):
    # fourth order: at 4x the returned steps the error is 256 times smaller,
    # and the returned rung is within about residual / 15 of the exact one
    u, info = propagate_unitary(h, t_final, tol=tol)
    assert info["residual"] < tol
    want = _sequential_run(h, t_final, 4 * info["steps"])
    assert np.linalg.norm(u - want, 2) <= 2 * tol


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


def _criterion9_device():
    """Criterion 9's two-qubit device: g/delta = 0.02, Omega/delta = 0.05, delta = 5."""
    n, delta, base = 2, 5.0, 40.0
    omega_q = np.array([base + (n - k) * delta for k in range(1, n + 1)])
    return DeviceParams(
        n=n,
        omega_q=omega_q,
        omega=omega_q - delta,
        Omega=np.full(n, 0.05 * delta),
        phi=np.zeros(n),
        g=np.full(n - 1, 0.02 * delta),
    )


@pytest.mark.parametrize("chunk_bytes", [None, 16 * 4 * 4 * 7, 16 * 4 * 4 * 40])
@pytest.mark.parametrize("mode", ["lab", "rotating"])
def test_sliced_magnus_chunks_equal_whole_chunks(monkeypatch, chunk_bytes, mode):
    # The chunks alone decide the product tree, so forming a chunk's step
    # unitaries in slices moves no bit. Each rung of the criterion-9 run
    # (3,200 to 12,800 steps) fits one partial default chunk of 16,384 steps,
    # in slices of 1,024; 7-step chunks take one step a slice, 40-step
    # chunks slices of 3 and 1.
    if chunk_bytes is None:
        p, t_final = _criterion9_device(), 20 * math.pi / 5.0
    else:
        monkeypatch.setattr(frames, "_MAGNUS_CHUNK_BYTES", chunk_bytes)
        p, t_final = DeviceParams.cr_chain(np.array([45.0, 40.0]), g=0.1, Omega=0.25), 0.4
    h = lab_frame_hamiltonian(p) if mode == "lab" else rotating_frame_hamiltonian(p)
    sliced, info = propagate_unitary(h, t_final)
    monkeypatch.setattr(frames, "_MAGNUS_SLICES", 1)
    whole, whole_info = propagate_unitary(h, t_final)
    assert info == whole_info
    assert sliced.tobytes() == whole.tobytes()


def test_magnus_peak_memory():
    # The criterion-9 lab run: 12,800 steps, 4x4 propagators. Whole chunks of
    # 16,384 steps held about eight 4 MiB stacks at once (32.6 MiB traced);
    # in slices, the stack of step unitaries and its product tree dominate.
    h = lab_frame_hamiltonian(_criterion9_device())
    tracemalloc.start()
    try:
        _, info = propagate_unitary(h, 20 * math.pi / 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info["steps"] == 12800
    assert peak <= 12e6


def test_simulation_guard_bounds_the_traced_peak(monkeypatch):
    # What the guard counts (states, Chebyshev planes, the generator's CSR
    # bound, the trace arrays) bounds what a 4x4 XY simulation allocates,
    # and the 17 Z observables keep nothing, where they kept their
    # diagonals (8.5 MiB) and before that complex CSR matrices (25.5 MiB).
    import scipy.special  # noqa: F401  (simulate loads it lazily; module memory is not counted)

    counted = []
    check = compiler._check_memory

    def counted_check(need, what):
        if what == "simulate":  # the Chebyshev orders are checked apart
            counted.append(need)
        check(need, what)

    monkeypatch.setattr(compiler, "_check_memory", counted_check)
    n = 16
    tracemalloc.start()
    try:
        schedule = compile_model(
            TargetModel(ModelKind.XY_2D, Lattice.square(4, 4), tau=0.1, repetitions=3)
        )
        obs = [PauliSum.from_sites(n, {k: "Z"}) for k in range(n)]
        obs.append(PauliSum.from_pattern("Z" * n))
        psi0 = np.zeros(1 << n, dtype=complex)
        psi0[0b0110_1001_1001_0110] = 1.0
        simulate(schedule, psi0, obs)
        held, peak = tracemalloc.get_traced_memory()
        del obs
        observables = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert peak <= counted[0]
    assert observables <= 1 << 16  # their term arrays


def test_simulation_guard_counts_near_the_traced_peak(monkeypatch):
    # With observables that have X parts, the guard counts the Chebyshev
    # loop's planes or an expectation's over the two states, whichever is
    # larger, not their sum: a 16-site Heisenberg chain allocates at least
    # 0.8 of what it counts.
    import scipy.special  # noqa: F401  (simulate loads it lazily; module memory is not counted)

    counted = []
    check = compiler._check_memory

    def counted_check(need, what):
        if what == "simulate":  # the Chebyshev orders are checked apart
            counted.append(need)
        check(need, what)

    monkeypatch.setattr(compiler, "_check_memory", counted_check)
    n = 16
    schedule = compile_model(
        TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(n), tau=0.1, repetitions=2)
    )
    obs = [PauliSum.from_sites(n, {0: "X", 1: p}) for p in "XYZ"]
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0b0110_1001_1001_0110] = 1.0
    tracemalloc.start()
    try:
        simulate(schedule, psi0, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert peak <= counted[0] <= 1.25 * peak


def test_simulation_guard_counts_the_first_matrix_build(monkeypatch):
    # A generator's first matrix build holds its table and laid-out blocks
    # beside three states: on a 12-site chain they outweigh the loop's
    # planes, and the guard counted 1.28 MB against a 2.01 MB traced peak
    # while it left the build out.
    import scipy.special  # noqa: F401  (simulate loads it lazily; module memory is not counted)

    counted = []
    check = compiler._check_memory

    def counted_check(need, what):
        if what == "simulate":  # the Chebyshev orders are checked apart
            counted.append(need)
        check(need, what)

    monkeypatch.setattr(compiler, "_check_memory", counted_check)
    n = 12
    schedule = compile_model(
        TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(n), tau=0.1, repetitions=2)
    )
    assert all(s.analog._matrix is None for s in schedule.segments())
    obs = [PauliSum.from_sites(n, {0: "X", 1: p}) for p in "XYZ"]
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0b0110_1001_1001] = 1.0
    tracemalloc.start()
    try:
        simulate(schedule, psi0, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert peak <= counted[0]


def _overlap(on):
    """Split states' parts run at once, on a worker thread of the caller's
    whatever the host's CPUs, or one after the other; yields the list of
    the worker's tasks."""
    return worker_tasks("_THREAD_ENTRIES", on)


@st.composite
def large_models(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    if kind is ModelKind.XY_2D:
        nx, ny = draw(st.sampled_from([(4, 4), (2, 8), (2, 7)]))
        lattice = Lattice.square(nx, ny, boundary="open")
    else:
        lattice = Lattice.chain(draw(st.integers(14, 16)))
    return TargetModel(kind, lattice, tau=draw(st.floats(0.05, 0.5)), repetitions=draw(st.integers(1, 2)))


@settings(max_examples=4, phases=[Phase.explicit, Phase.generate])  # shrinking 16-qubit runs takes minutes
@given(large_models(), st.integers(0, 2**16 - 1))
def test_overlapped_parts_give_the_same_bits(model, seed):
    # The real and imaginary parts of a state run the same arithmetic on one
    # thread or on two: simulate's expectations and norms, and apply on
    # each compiled generator's real matrix, are identical to the last bit.
    schedule = compile_model(model)
    n = schedule.n
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[seed % (1 << n)] = 1.0
    obs = [PauliSum.from_sites(n, {0: "Z"}), PauliSum.from_sites(n, {0: "X", 1: "Y"})]
    psi = _states(seed, n)[0]

    def run(on):
        with _overlap(on) as tasks:
            trace = simulate(schedule, psi0, obs)
            applied = [h.apply(psi) for h in {s.analog for s in schedule.segments()}]
        values = [trace.norms, trace.expectations, *applied]
        return [[float(x).hex() for x in np.ravel(v).view(float)] for v in values], len(tasks)

    (serial, none), (overlapped, some) = run(False), run(True)
    assert none == 0 and some > 0
    assert overlapped == serial


def test_callers_on_many_threads_share_the_worker():
    # Sweep workers may apply a sum at once: their parts queue on the one
    # worker thread, and each caller gets its own back, with the serial bits.
    rng = np.random.default_rng(3)
    h = compile_model(TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(8))).segments()[0].analog
    states = [rng.standard_normal(256) + 1j * rng.standard_normal(256) for _ in range(16)]
    with _overlap(False):
        want = [[h.apply(s).tobytes()] * 20 for s in states]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _overlap(True) as tasks, ThreadPoolExecutor(max_workers=8) as callers:
            got = list(callers.map(lambda s: [h.apply(s).tobytes() for _ in range(20)], states, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert len(tasks) == 16 * 20


_THREAD_COUNTS = """
import os, threading
import numpy as np
from crda import pauli
from crda.compiler import ModelKind, TargetModel, compile_model, simulate
from crda.device import Lattice

def run():
    schedule = compile_model(TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(8), repetitions=2))
    simulate(schedule, np.eye(256, 1, dtype=complex).ravel(), [])

for _ in range(10):
    run()
print(threading.active_count())
pauli._THREAD_ENTRIES = 1 << 8
for _ in range(10):
    run()
print(threading.active_count(), len(os.sched_getaffinity(0)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="counts usable CPUs by affinity")
def test_parts_overlap_on_at_most_one_thread():
    # In a fresh process: below the gate (2^8 amplitudes against 2^14)
    # simulate starts no thread; at the gate, many calls start one worker,
    # and only when two CPUs are usable.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pauli.__file__))}
    ret = subprocess.run(
        [sys.executable, "-c", _THREAD_COUNTS], capture_output=True, text=True, env=env, timeout=60
    )
    assert ret.returncode == 0, ret.stderr
    below, (above, cpus) = [list(map(int, line.split())) for line in ret.stdout.splitlines()]
    assert below == [1]
    assert above == 1 + (cpus >= 2)


_FORKED_CHILD = """
import os, signal
import numpy as np
from crda import pauli
from crda.pauli import PauliSum

pauli._THREAD_ENTRIES = 1
h = PauliSum.from_pattern("XX") + PauliSum.from_pattern("ZZ")
v = np.ones(4, dtype=complex)
h.apply(v)
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child left waiting ends itself
    h.apply(v)
    os._exit(0)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_parts_on_its_own_worker():
    # A forked child inherits the parent's executor but not its thread; on
    # the inherited one its first overlapped apply would wait forever (the
    # child's alarm ends it, and the exit code shows SIGALRM).
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pauli.__file__))}
    ret = subprocess.run(
        [sys.executable, "-c", _FORKED_CHILD], capture_output=True, text=True, env=env, timeout=60
    )
    assert ret.returncode == 0, ret.stderr
    assert ret.stdout.split() == ["0"]


def test_observables_keep_no_matrix():
    # An expectation builds no matrix and forms its weights a block of rows
    # at a time, so a simulation with a Z observable on each of 12 sites
    # peaks within one plane of the same run with one, where kept diagonals
    # added 11 planes.
    n = 12
    schedule = compile_model(
        TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(n), tau=0.2, repetitions=3)
    )
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0b0110_1001_0110] = 1.0

    def peak(obs):
        tracemalloc.start()
        try:
            simulate(schedule, psi0, obs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = [PauliSum.from_sites(n, {0: "Z"})]
    every = [PauliSum.from_sites(n, {k: "Z"}) for k in range(n)]
    simulate(schedule, psi0, one)  # builds the generator's kept matrix and loads scipy.special
    assert peak(every) - peak(one) <= 8 << n
    assert all(obs._matrix is None for obs in one + every)


def test_trace_arrays_refused_before_allocating():
    # 10^10 blocks need 8 bytes per block for the time, the norm and each
    # observable: 240 GB, refused before any array is made.
    schedule = compile_model(
        TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(4), repetitions=10**10)
    )
    tracemalloc.start()
    try:
        with pytest.raises(DenseLimitError, match="simulate"):
            simulate(schedule, np.eye(16, 1, dtype=complex).ravel(), [PauliSum.from_sites(4, {0: "Z"})])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def hermitian_sums(draw):
    """Hermitian sums on 1 to 8 sites whose R = sum |c| is not a power of two.

    In about half of them every matrix weight c (-i)^|x&z| is real: a drawn
    string with an odd number of Y letters has one of them made an X. The
    others carry a lone Y on site 0, whose weight is imaginary.
    """
    n = draw(st.integers(1, 8))
    masks = st.integers(0, (1 << n) - 1)
    real = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        x, z = draw(masks), draw(masks)
        y = x & z
        if real and y.bit_count() % 2:
            z ^= y & -y
        terms[x, z] = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    if not real:
        terms[1, 1] = draw(st.floats(0.1, 2.0))
    h = PauliSum(n, terms)
    assert (h._csr_dtype() is float) == real
    # 1/R rounds, so the parts must be scaled by it where complex divides by R
    assume(math.frexp(sum(abs(c) for c in h._c.tolist()))[0] != 0.5)
    return h


def _states(seed, n):
    """A random state with zeros of both signs in its parts, and a basis state
    and i times it, whose other amplitudes are -0 - 0j: a zero no term of the
    expansion reaches keeps the sign the complex recurrence gives it."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi.real[rng.random(dim) < 0.3] = 0.0
    psi.imag[rng.random(dim) < 0.3] = -0.0
    basis = np.full(dim, complex(-0.0, -0.0))
    basis[seed % dim] = 1.0
    return psi, basis, 1j * basis


@given(hermitian_sums(), st.floats(1e-7, 3.0), st.integers(0, 2**32 - 1))
def test_chebyshev_propagator_equals_complex_recurrence(h, tau, seed):
    op = compiler._chebyshev_propagator(h, tau)
    for psi in _states(seed, h.n):
        assert op(psi).tobytes() == reference_chebyshev(h, tau, psi).tobytes()


@pytest.mark.parametrize("kind", list(ModelKind))
def test_compiled_generators_are_real_and_propagate_as_complex(kind):
    # Heisenberg and XY chains on 10 sites have R = 9, whose reciprocal rounds.
    lattice = Lattice.square(2, 4) if kind is ModelKind.XY_2D else Lattice.chain(10)
    schedule = compile_model(TargetModel(kind, lattice, tau=0.3))
    for h in {s.analog for s in schedule.segments()}:
        assert h._csr_dtype() is float
        op = compiler._chebyshev_propagator(h, 0.3)
        for psi in _states(7, h.n):
            assert op(psi).tobytes() == reference_chebyshev(h, 0.3, psi).tobytes()
        assert h._matrix.dtype == np.float64


def test_equal_segments_share_one_generator(monkeypatch):
    # A static segment runs on the matrix its sum keeps, so a new duration
    # changes only the expansion coefficients: one build per distinct
    # Hamiltonian, at its real dtype. The observables, a Z string and two
    # with X parts (XY with an imaginary matrix weight), build no CSR
    # matrix and keep nothing. to_dense builds a matrix too, so the
    # time-dependent case counts propagate_unitary calls instead.
    built = []
    calls = {"propagate_unitary": 0}
    build_csr = PauliSum._build_csr
    propagate = compiler.propagate_unitary

    def counted_build_csr(self, dtype=complex):
        built.append((self, dtype))
        return build_csr(self, dtype)

    def counted_propagate(*args, **kwargs):
        calls["propagate_unitary"] += 1
        return propagate(*args, **kwargs)

    monkeypatch.setattr(PauliSum, "_build_csr", counted_build_csr)
    monkeypatch.setattr(compiler, "propagate_unitary", counted_propagate)
    n = 4
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0b0110] = 1.0
    obs = [PauliSum.from_sites(n, {0: "Z"}), PauliSum.from_pattern("XXII"), PauliSum.from_pattern("XYII")]
    heisenberg = TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(n), tau=0.2, repetitions=3)
    schedule = compile_model(heisenberg)
    assert len(schedule.segments()) == 3
    simulate(schedule, psi0, obs)
    h = schedule.segments()[0].analog
    assert built == [(h, float)]
    assert all(o._matrix is None for o in obs)
    assert calls == {"propagate_unitary": 0}
    timed = Schedule(
        n, (AnalogSegment(0.2, "all", h), GateLayer(G.HADAMARD), AnalogSegment(0.3, "all", h),
            AnalogSegment(0.2, "all", h)), repetitions=2,
    )
    trace = simulate(timed, psi0, obs)
    assert built == [(h, float)]  # no build for the new duration
    assert all(o._matrix is None for o in obs)
    assert np.allclose(trace.expectations, _oracle_rows(timed, psi0, obs), rtol=0.0, atol=1e-12)
    device = DeviceParams.uniform_chain(n, g=1.0, delta=10.0, Omega=0.4)
    xy = TargetModel(ModelKind.XY_1D, Lattice.chain(n), tau=0.05, repetitions=2)
    realistic = compile_model(xy, realistic=True, device=device)
    assert len(realistic.segments()) == 2
    simulate(realistic, psi0, obs)
    assert calls["propagate_unitary"] == 1


_CHAIN = (  # R = sum |c| = 2.75
    PauliSum.from_pattern("XXII") + PauliSum.from_pattern("IYYI")
    + 0.5 * PauliSum.from_pattern("IIZZ") + 0.25 * PauliSum.from_pattern("ZIII")
)


@pytest.mark.parametrize(
    "h, tau, terms",
    [
        (PauliSum(3), 0.7, None),
        (PauliSum(3, {(0, 0): -1.3}), 0.7, None),
        (_CHAIN, 1e-18, 1),  # J_1(R tau) is below the cut
        (_CHAIN, 1e-10, 2),  # J_2(R tau) is below the cut
        (_CHAIN, 40.0, None),  # R tau = 110
    ],
    ids=["zero", "identity", "one-term", "two-terms", "long"],
)
def test_chebyshev_propagator_matches_expm(h, tau, terms):
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(1 << h.n) + 1j * rng.standard_normal(1 << h.n)
    psi /= np.linalg.norm(psi)
    if terms is not None:
        r = sum(abs(c) for _, _, c in h._keyed())
        assert compiler._chebyshev_coefficients(r * tau).size == terms
    got = compiler._chebyshev_propagator(h, tau)(psi)
    want = scipy.linalg.expm(-1j * tau * dense_oracle(h)) @ psi
    assert got is not psi
    assert np.allclose(got, want, rtol=0.0, atol=1e-10)


def test_chebyshev_propagator_refuses_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        compiler._chebyshev_propagator(PauliSum.from_pattern("XZ", 1j), 0.1)


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
