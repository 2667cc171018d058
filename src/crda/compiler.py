"""Compilation of target spin models into digital-analog block schedules.

A schedule is a repeated block of single-qubit gate layers interleaved
with analog evolution segments under the device's effective chain. The
gate layers place each segment in a rotated frame, so the segment
effectively evolves under a toggled chain; summing the toggled forms
over the block realizes the target model. Each model's protocol is one
row of the ``_PROTOCOLS`` table: the target kind, the lattice dimension,
the original chain realistic mode substitutes, and the framed segments:

* Ising (zz chain): two segments under the odd- and even-sublattice
  cross-resonance chains, sandwiched by Hadamard layers. The two toggled
  pieces commute, so one block equals exp(-i H_zz tau) exactly.
* XY chain: two segments under the full control chain inside
  Hadamard-even/odd plus quarter-x-rotation frames. Again exact.
* Heisenberg chain: three segments whose frames additionally cycle the
  Pauli axes; the pieces no longer commute and the block carries a
  first-order product-formula error O(tau^2).
* 2D XY: two segments under the native 2D chain toggled into the two
  interleaved unit-cell decompositions, first-order splitting.

Blocks are emitted in application order (first list entry acts first on
the state). Optional peephole fusion cancels adjacent inverse layers and
merges equal layers on disjoint supports without changing the unitary.

:func:`simulate` (on a state) and :func:`block_unitary` (on the identity)
apply one step list: gate layers act matrix-free, equal segments share one
operator, and only a static segment's operator differs: a Chebyshev
expansion run on the matrix the sum keeps, or a dense exponential. Every
generator :func:`compile_model` emits has real matrix weights, so the
expansion runs on the state's real and imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy  # scipy.special loads lazily, at the first simulate

from .device import Lattice
from .frames import (
    GateLayer,
    GateLayerKind,
    apply_layer,
    compose_kinds,
    phase_insensitive_distance,
    propagate_unitary,
    toggle_chain,
)
from .hamiltonians import (
    HamiltonianKind,
    TimeDependentHamiltonian,
    build_canonical,
    org_hamiltonian,
)
from .pauli import (
    PauliSum,
    _check_dense,
    _check_memory,
    _joined,
    _left_sum,
    _on_parts,
    _split,
    expm_hermitian,
)

__all__ = [
    "ModelKind",
    "TargetModel",
    "AnalogSegment",
    "Schedule",
    "compile_model",
    "schedule_unitary",
    "simulate",
    "SimulationTrace",
    "block_error",
    "target_hamiltonian",
    "segment_hamiltonians",
    "fuse",
]

class ModelKind(Enum):
    ISING_1D = "ising"
    XY_1D = "xy1d"
    XY_2D = "xy2d"
    HEISENBERG_1D = "heisenberg"


class _Protocol(NamedTuple):
    """One model's block as data.

    ``segments`` are ``(entry layers, analog kind, drive)`` triples in
    application order; a segment's exit layers are the inverses of its
    entry layers, in reverse order. ``original`` is the closed-form
    time-dependent chain that realistic mode runs in every segment, if the
    model has one.
    """

    target: HamiltonianKind
    dim: int
    original: HamiltonianKind | None
    segments: tuple[tuple[tuple[GateLayer, ...], HamiltonianKind, str], ...]


_H_ALL = GateLayer(GateLayerKind.HADAMARD, "all")
_H_EVEN = GateLayer(GateLayerKind.HADAMARD, "even")
_RX90_ALL = GateLayer(GateLayerKind.RX90, "all")
_K = HamiltonianKind

_PROTOCOLS: dict[ModelKind, _Protocol] = {
    ModelKind.ISING_1D: _Protocol(target=_K.H_ZZ, dim=1, original=_K.ORG_ZZ, segments=(
        ((_H_ALL,), _K.QF_EFFECTIVE_ODD, "odd"),
        ((_H_ALL,), _K.QF_EFFECTIVE_EVEN, "even"),
    )),
    ModelKind.XY_1D: _Protocol(target=_K.H_XY_1D, dim=1, original=_K.ORG, segments=(
        ((_RX90_ALL, _H_EVEN), _K.CONTROL, "all"),
        ((_RX90_ALL, GateLayer(GateLayerKind.HADAMARD, "odd")), _K.CONTROL, "all"),
    )),
    ModelKind.HEISENBERG_1D: _Protocol(target=_K.H_HEIS, dim=1, original=None, segments=(
        ((GateLayer(GateLayerKind.UE2, "all"), _H_EVEN), _K.CONTROL, "all"),
        ((GateLayer(GateLayerKind.UE, "all"), _H_EVEN), _K.CONTROL, "all"),
        ((_H_EVEN,), _K.CONTROL, "all"),
    )),
    ModelKind.XY_2D: _Protocol(target=_K.H_XY_2D, dim=2, original=None, segments=(
        ((_RX90_ALL,), _K.H_2D_ODD, "all"),
        ((_RX90_ALL, _H_ALL), _K.H_2D_ODD, "all"),
    )),
}


@dataclass(frozen=True)
class TargetModel:
    kind: ModelKind
    lattice: Lattice
    j: float = 1.0
    tau: float = 0.1
    repetitions: int = 1

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        want_dim = _PROTOCOLS[self.kind].dim
        if self.lattice.dim != want_dim:
            raise ValueError(f"{self.kind.value} needs a {want_dim}D lattice")


@dataclass(frozen=True)
class AnalogSegment:
    """Free evolution under the device chain for a fixed duration."""

    duration: float
    drive: str  # drive layout active during the segment
    analog: PauliSum | TimeDependentHamiltonian


@dataclass(frozen=True)
class Schedule:
    """Repeating digital-analog block, steps in application order."""

    n: int
    steps: tuple[GateLayer | AnalogSegment, ...]
    repetitions: int = 1
    model: str = ""

    @property
    def analog_time_per_block(self) -> float:
        return _left_sum(s.duration for s in self.steps if isinstance(s, AnalogSegment))

    def segments(self) -> list[AnalogSegment]:
        return [s for s in self.steps if isinstance(s, AnalogSegment)]

    def to_json_dict(self) -> dict:
        steps = []
        for s in self.steps:
            if isinstance(s, GateLayer):
                support = s.support if isinstance(s.support, str) else list(s.support)
                steps.append({"type": "gate", "kind": s.kind.value, "support": support})
            else:
                analog = (
                    s.analog.to_json_dict()
                    if isinstance(s.analog, PauliSum)
                    else "time-dependent"
                )
                steps.append(
                    {
                        "type": "analog",
                        "duration": s.duration,
                        "drive": s.drive,
                        "analog": analog,
                    }
                )
        return {
            "n": self.n,
            "model": self.model,
            "repetitions": self.repetitions,
            "steps": steps,
        }


# ----------------------------------------------------------------------
# block construction
# ----------------------------------------------------------------------


def target_hamiltonian(m: TargetModel) -> PauliSum:
    return build_canonical(_PROTOCOLS[m.kind].target, m.lattice, m.j)


def segment_hamiltonians(m: TargetModel) -> list[PauliSum]:
    """Each segment's analog chain toggled by its entry layers, in application order.

    These are the block's product-formula parts; they sum to the target model.
    """
    return [
        toggle_chain(build_canonical(kind, m.lattice, m.j), entry[::-1])
        for entry, kind, _ in _PROTOCOLS[m.kind].segments
    ]


def compile_model(
    m: TargetModel,
    fuse_layers: bool = False,
    realistic: bool = False,
    device=None,
) -> Schedule:
    """Compile a target model into its digital-analog block schedule.

    The block is the model's ``_PROTOCOLS`` row, one framed segment after
    another. With ``realistic=True`` every analog segment carries the
    protocol's time-dependent original chain instead of its effective one,
    inside the same frames, exposing synthesis error end to end (supported
    for the 1D Ising and XY protocols, which have closed-form originals);
    ``device`` must then supply the uniform drive parameters.
    """
    protocol = _PROTOCOLS[m.kind]
    steps: list[GateLayer | AnalogSegment] = []
    for entry, analog_kind, drive in protocol.segments:
        analog = build_canonical(analog_kind, m.lattice, m.j)
        exit_layers = [layer.inverse() for layer in reversed(entry)]
        steps += [*entry, AnalogSegment(m.tau, drive, analog), *exit_layers]

    if realistic:
        if protocol.original is None:
            raise ValueError(f"no closed-form original chain for {m.kind.value}")
        if device is None:
            raise ValueError("realistic mode needs device parameters")
        org = org_hamiltonian(protocol.original, device)
        steps = [
            replace(s, analog=org) if isinstance(s, AnalogSegment) else s
            for s in steps
        ]

    schedule = Schedule(
        n=m.lattice.n_sites, steps=tuple(steps), repetitions=m.repetitions, model=m.kind.value
    )
    return fuse(schedule) if fuse_layers else schedule


def _fused(a, b, n: int) -> tuple[GateLayer, ...] | None:
    """The layers adjacent steps ``a`` then ``b`` reduce to; None if no rule applies."""
    if not (isinstance(a, GateLayer) and isinstance(b, GateLayer)):
        return None
    sa, sb = frozenset(a.sites(n)), frozenset(b.sites(n))
    if sa == sb:  # an inverse pair cancels; a catalogued product replaces the pair
        kind = compose_kinds(a.kind, b.kind)
    else:  # equal kinds on disjoint supports merge
        kind = a.kind if a.kind is b.kind and not sa & sb else None
    if kind is None:
        return None
    if kind is GateLayerKind.IDENTITY:
        return ()
    for name in ("all", "even", "odd"):
        if sa | sb == frozenset(GateLayer(kind, name).sites(n)):
            return (GateLayer(kind, name),)
    return (GateLayer(kind, tuple(sorted(k + 1 for k in sa | sb))),)


def fuse(schedule: Schedule) -> Schedule:
    """Peephole reduction of adjacent gate layers; the unitary is unchanged.

    Drops identity layers, then reduces adjacent pairs by :func:`_fused`
    left to right, each step in at most one reduction per pass. Every
    reduction shortens the steps, so passes repeat until one leaves their
    number unchanged. A merged support is named ``all``, ``even`` or
    ``odd`` when one names its sites, else a sorted site tuple.
    """
    steps = [
        s
        for s in schedule.steps
        if not (isinstance(s, GateLayer) and s.kind is GateLayerKind.IDENTITY)
    ]
    length = None
    while len(steps) != length:
        length = len(steps)
        out, i = [], 0
        while i < length:
            fused = _fused(steps[i], steps[i + 1], schedule.n) if i + 1 < length else None
            if fused is None:
                out.append(steps[i])
                i += 1
            else:
                out += fused
                i += 2
        steps = out
    return replace(schedule, steps=tuple(steps))


# ----------------------------------------------------------------------
# synthesis and simulation
# ----------------------------------------------------------------------

_Op = Callable[[np.ndarray], np.ndarray]


def _step_operators(
    schedule: Schedule, static: Callable[[AnalogSegment], _Op], tol: float
) -> list[_Op]:
    """One operator per step, on arrays whose first axis is the 2^n basis index.

    Gate layers act by :func:`~crda.frames.apply_layer`, a time-dependent
    segment by its :func:`~crda.frames.propagate_unitary` matrix and a static
    one by what ``static`` makes of it; equal ``(duration, analog)`` share one.
    """
    made: dict[tuple[float, PauliSum | TimeDependentHamiltonian], _Op] = {}
    for s in schedule.segments():
        if (s.duration, s.analog) in made:
            continue
        if isinstance(s.analog, PauliSum):
            made[s.duration, s.analog] = static(s)
        else:
            u, _ = propagate_unitary(s.analog, s.duration, tol=tol)
            made[s.duration, s.analog] = u.__matmul__
    n = schedule.n
    return [
        (lambda psi, layer=step: apply_layer(layer, psi, n))
        if isinstance(step, GateLayer)
        else made[step.duration, step.analog]
        for step in schedule.steps
    ]


def block_unitary(schedule: Schedule) -> np.ndarray:
    """Dense unitary of one block: :func:`simulate`'s step list applied to the identity.

    A static segment's operator here is its dense ``expm_hermitian`` exponential,
    and a time-dependent one is integrated to :func:`simulate`'s default ``tol``.
    """
    _check_dense(schedule.n, "block_unitary")

    def dense(s: AnalogSegment) -> _Op:
        return expm_hermitian(s.analog, s.duration).__matmul__

    u = np.eye(1 << schedule.n, dtype=complex)
    for op in _step_operators(schedule, dense, 1e-10):
        u = op(u)
    return u


def schedule_unitary(schedule: Schedule) -> np.ndarray:
    """Dense unitary of the full schedule (block repeated M times)."""
    return np.linalg.matrix_power(block_unitary(schedule), schedule.repetitions)


@dataclass
class SimulationTrace:
    """Per-block expectation values for a simulated schedule."""

    times: np.ndarray  # time after each block
    norms: np.ndarray  # state norm after each block
    expectations: np.ndarray  # shape (blocks, observables), real parts


# 2^n-entry float64 planes a simulation holds besides its matrices, two per
# complex vector: the caller's initial state, the current state, and the
# Chebyshev loop's accumulator, two recurrence vectors and the next one or
# the current term. A generator's first matrix build sees the first three.
_SIMULATE_PLANES = 12
_FIRST_BUILD_PLANES = 6

# Chebyshev terms are kept up to the first order past R tau whose Bessel
# coefficient falls below this; the tail beyond it is below double roundoff.
_CHEBYSHEV_TOL = 1e-16


def _check_simulation_memory(schedule: Schedule, observables: Sequence[PauliSum]) -> None:
    """Refuse, before allocating, a simulation whose arrays exceed memory.

    It counts each generator's kept matrix, every sum's kept row-block plan
    (``kept`` of :meth:`~crda.pauli.PauliSum._layout`), the trace's times, norms and
    expectations (8 bytes per block each), and the largest of the Chebyshev
    loop's state planes; with observables, two states and the largest
    expectation value's bytes (:meth:`~crda.pauli.PauliSum._expectation_bytes`);
    and, while a generator's matrix is not yet built, three states and the
    build's scratch (:meth:`~crda.pauli.PauliSum._build_scratch_bytes`), each with its plan again.
    """
    n = schedule.n
    generators = {s.analog for s in schedule.segments() if isinstance(s.analog, PauliSum)}
    observing = max((4 * (8 << n) + obs._expectation_bytes() for obs in observables), default=0)
    building = max(
        (_FIRST_BUILD_PLANES * (8 << n) + h._build_scratch_bytes() for h in generators if h._matrix is None),
        default=0,
    )
    need = (
        max(_SIMULATE_PLANES * (8 << n), observing, building)
        + sum(h._matrix_bytes(h._csr_dtype()) for h in generators)
        + sum(h._layout().kept for h in [*generators, *observables])
        + 8 * schedule.repetitions * (2 + len(observables))
    )
    _check_memory(need, "simulate")


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """``(2 - delta_k0) (-i)^k J_k(x)`` for k below the first k > |x| with |J_k| < tol.

    Below |x| the Bessel functions have zeros, so a small value there is no
    place to stop; past |x| they fall off super-exponentially.
    """
    kmax = abs(x) + 10.0 * abs(x) ** (1.0 / 3.0) + 16.0
    while True:
        # at the peak an order holds int64 and float64 values, an int64 index, its
        # residues and two complex numbers; in float, an overflowed order is refused
        _check_memory(64 * (kmax + 1.0), "Chebyshev expansion")
        k = np.arange(int(kmax) + 1)
        j = scipy.special.jv(k, x)
        small = np.flatnonzero((k > abs(x)) & (np.abs(j) < _CHEBYSHEV_TOL))
        if small.size:
            j = j[: small[0]]
            break
        kmax *= 2
    coef = np.array([1, -1j, -1, 1j])[np.arange(j.size) % 4] * j
    coef[1:] *= 2.0
    return coef


def _chebyshev_propagator(h: PauliSum, tau: float) -> _Op:
    """exp(-i h tau) on a state, as a Chebyshev expansion run on the matrix ``h`` keeps.

    With R = sum |c|, an exact bound on ||h||, exp(-i h tau) = sum_k (2 -
    delta_k0) (-i)^k J_k(R tau) T_k(h / R) (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967, 1984). The three-term recurrence phi_{k+1} = (2/R) h
    phi_k - phi_{k-1} runs on :meth:`~crda.pauli.PauliSum._operator`; it
    never copies or rescales the matrix. A real matrix runs it on the
    state's real and imaginary parts apart, with the bits of the complex
    recurrence: a complex vector scaled by a real s has parts scaled by s
    (by 1/R, not divided by R, as numpy divides by a complex R + 0j), and
    each term c_k phi_k joins the parts into one complex vector for numpy's
    complex product and sum, as the complex recurrence forms them. Each
    step is written in place, ``y = m @ v; y *= 2/R; y -= p``, with the
    bits of ``(m @ v) * (2/R) - p``, and the two parts run at once from
    ``_THREAD_ENTRIES`` entries on (:func:`~crda.pauli._on_parts`). It
    holds three vectors and an accumulator.
    """
    if not h.is_hermitian():
        raise ValueError("a static segment needs a Hermitian operator")
    r = _left_sum(abs(c) for c in h._c.tolist())
    if r == 0.0:
        return np.copy
    coef = _chebyshev_coefficients(r * tau)

    def op(psi: np.ndarray) -> np.ndarray:
        acc = coef[0] * psi
        if coef.size == 1:
            return acc
        m = h._operator()

        def first(v: np.ndarray) -> np.ndarray:
            y = m @ v
            y *= 1.0 / r
            return y

        def step(v: np.ndarray, p: np.ndarray) -> np.ndarray:
            y = m @ v
            y *= 2.0 / r
            y -= p
            return y

        prev = _split(m, psi)
        cur = _on_parts(first, prev)
        acc += _product(coef[1], cur)
        for c in coef[2:]:
            prev, cur = cur, _on_parts(step, cur, prev)
            acc += _product(c, cur)
        return acc

    return op


def _product(c: complex, v: list[np.ndarray]) -> np.ndarray:
    """``c`` times the complex vector :func:`~crda.pauli._split` gave as ``v``, a new array."""
    if len(v) == 1:
        return c * v[0]
    z = _joined(v)
    return np.multiply(c, z, out=z)


def simulate(
    schedule: Schedule,
    psi0: np.ndarray,
    observables: Sequence[PauliSum],
    dense_limit: int = 0,
    tol: float = 1e-10,
) -> SimulationTrace:
    """Evolve a state through the schedule, recording one row per block.

    The state passes through the step list :func:`block_unitary` applies to
    the identity. A static (``PauliSum``) segment acts, at every size, by a
    Chebyshev expansion of exp(-i H tau) on the matrix the sum keeps (real
    where its weights are, as ``H.apply`` uses), so equal Hamiltonians share
    one matrix whatever their durations. An observable builds no matrix and
    keeps only its row-block plan: its expectation adds its matrix entries, a
    block of rows at a time, per X mask times the gathered state
    (:meth:`~crda.pauli.PauliSum.expectation`). Gate layers act
    matrix-free, in blocks of adjacent sites. A time-dependent segment becomes a dense unitary from
    :func:`~crda.frames.propagate_unitary` (to ``tol``), which raises
    :class:`~crda.pauli.DenseLimitError` above ``DEFAULT_DENSE_LIMIT``
    qubits. Equal ``(duration, analog)`` segments share one operator.
    Raises :class:`~crda.pauli.DenseLimitError` before allocating when the
    state, matrices and workspace would not fit in usable memory.
    ``dense_limit`` is not read; ``perfbench/tracing.py`` binds it.
    """
    n = schedule.n
    _check_simulation_memory(schedule, observables)
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (1 << n,):
        raise ValueError("initial state size does not match the schedule")
    for obs in observables:
        if obs.n != n:
            raise ValueError("observable size does not match the schedule")

    def chebyshev(s: AnalogSegment) -> _Op:
        return _chebyshev_propagator(s.analog, s.duration)

    steps = _step_operators(schedule, chebyshev, tol)
    tau_block = schedule.analog_time_per_block
    blocks = schedule.repetitions
    times = np.zeros(blocks)
    norms = np.zeros(blocks)
    expectations = np.zeros((blocks, len(observables)))
    for b in range(blocks):
        for op in steps:
            psi = op(psi)
        times[b] = (b + 1) * tau_block
        # numpy's sum, not BLAS (see PauliSum.expectation): thread-independent
        norms[b] = float(np.sqrt(np.sum((psi.conj() * psi).real)))
        for i, obs in enumerate(observables):
            expectations[b, i] = float(obs.expectation(psi).real)
    return SimulationTrace(times, norms, expectations)


def block_error(m: TargetModel, tau: float | None = None) -> float:
    """Phase-insensitive distance of one block from exp(-i H_target tau)."""
    model = m if tau is None else replace(m, tau=tau)
    schedule = compile_model(replace(model, repetitions=1))
    u_block = block_unitary(schedule)
    u_target = expm_hermitian(target_hamiltonian(model), model.tau)
    return phase_insensitive_distance(u_block, u_target)
