"""Compilation of target spin models into digital-analog block schedules.

A schedule is a repeated block of single-qubit gate layers interleaved
with analog evolution segments under the device's effective chain. The
gate layers place each segment in a rotated frame, so the segment
effectively evolves under a toggled chain; summing the toggled forms
over the block realizes the target model:

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import scipy.sparse.linalg

from .device import Lattice
from .frames import (
    GateLayer,
    GateLayerKind,
    apply_layer,
    compose_kinds,
    layer_unitary,
    phase_insensitive_distance,
    propagate_unitary,
)
from .hamiltonians import (
    HamiltonianKind,
    TimeDependentHamiltonian,
    build_canonical,
    org_hamiltonian,
)
from .pauli import DEFAULT_DENSE_LIMIT, PauliSum, _check_dense, expm_hermitian

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
    "fuse",
]


class ModelKind(Enum):
    ISING_1D = "ising"
    XY_1D = "xy1d"
    XY_2D = "xy2d"
    HEISENBERG_1D = "heisenberg"


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
        want_dim = 2 if self.kind is ModelKind.XY_2D else 1
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
        return sum(s.duration for s in self.steps if isinstance(s, AnalogSegment))

    @property
    def total_time(self) -> float:
        return self.repetitions * self.analog_time_per_block

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


def _framed_segment(
    entry: Sequence[GateLayer], segment: AnalogSegment
) -> list[GateLayer | AnalogSegment]:
    """Entry layers, the segment, then the exit layers (inverses, reversed)."""
    exit_layers = [layer.inverse() for layer in reversed(entry)]
    return [*entry, segment, *exit_layers]


def target_hamiltonian(m: TargetModel) -> PauliSum:
    K = HamiltonianKind
    kind = {
        ModelKind.ISING_1D: K.H_ZZ,
        ModelKind.XY_1D: K.H_XY_1D,
        ModelKind.XY_2D: K.H_XY_2D,
        ModelKind.HEISENBERG_1D: K.H_HEIS,
    }[m.kind]
    return build_canonical(kind, m.lattice, m.j)


def compile_model(
    m: TargetModel,
    fuse_layers: bool = False,
    realistic: bool = False,
    device=None,
) -> Schedule:
    """Compile a target model into its digital-analog block schedule.

    With ``realistic=True`` the analog segments carry the time-dependent
    original chain of the matching frame instead of the effective one,
    exposing synthesis error end to end (supported for the 1D Ising and
    XY protocols, which have closed-form originals); ``device`` must then
    supply the uniform drive parameters.
    """
    lat = m.lattice
    n = lat.n_sites
    K = HamiltonianKind
    G = GateLayerKind
    tau = m.tau

    def seg(analog_kind: K, drive: str) -> AnalogSegment:
        analog: PauliSum | TimeDependentHamiltonian
        analog = build_canonical(analog_kind, lat, m.j)
        return AnalogSegment(tau, drive, analog)

    if m.kind is ModelKind.ISING_1D:
        h_all = GateLayer(G.HADAMARD, "all")
        steps = [
            h_all,
            seg(K.QF_EFFECTIVE_ODD, "odd"),
            h_all,
            h_all,
            seg(K.QF_EFFECTIVE_EVEN, "even"),
            h_all,
        ]
    elif m.kind is ModelKind.XY_1D:
        part_e = _framed_segment(
            [GateLayer(G.RX90, "all"), GateLayer(G.HADAMARD, "even")],
            seg(K.CONTROL, "all"),
        )
        part_o = _framed_segment(
            [GateLayer(G.RX90, "all"), GateLayer(G.HADAMARD, "odd")],
            seg(K.CONTROL, "all"),
        )
        steps = [*part_e, *part_o]
    elif m.kind is ModelKind.HEISENBERG_1D:
        h_even = GateLayer(G.HADAMARD, "even")
        parts = []
        for power_layer in (
            GateLayer(G.UE2, "all"),
            GateLayer(G.UE, "all"),
            None,
        ):
            entry = [power_layer, h_even] if power_layer else [h_even]
            parts.extend(_framed_segment(entry, seg(K.CONTROL, "all")))
        steps = parts
    elif m.kind is ModelKind.XY_2D:
        part_ii = _framed_segment(
            [GateLayer(G.RX90, "all")], seg(K.H_2D_ODD, "all")
        )
        part_i = _framed_segment(
            [GateLayer(G.RX90, "all"), GateLayer(G.HADAMARD, "all")],
            seg(K.H_2D_ODD, "all"),
        )
        steps = [*part_ii, *part_i]
    else:
        raise ValueError(f"unsupported model {m.kind}")

    if realistic:
        org_kind = {
            ModelKind.ISING_1D: K.ORG_ZZ,
            ModelKind.XY_1D: K.ORG_XY,
        }.get(m.kind)
        if org_kind is None:
            raise ValueError(f"no closed-form original chain for {m.kind.value}")
        if device is None:
            raise ValueError("realistic mode needs device parameters")
        org = org_hamiltonian(org_kind, device)
        steps = [
            replace(s, analog=org) if isinstance(s, AnalogSegment) else s
            for s in steps
        ]

    schedule = Schedule(
        n=n, steps=tuple(steps), repetitions=m.repetitions, model=m.kind.value
    )
    return fuse(schedule) if fuse_layers else schedule


def fuse(schedule: Schedule) -> Schedule:
    """Peephole reduction of adjacent gate layers; the unitary is unchanged.

    Cancels exact inverse pairs, replaces a same-support pair by one layer
    when their product is again a catalogued kind, and merges equal-kind
    layers on disjoint supports into one layer.
    """
    n = schedule.n
    steps = [
        s
        for s in schedule.steps
        if not (isinstance(s, GateLayer) and s.kind is GateLayerKind.IDENTITY)
    ]

    def support_of(layer: GateLayer) -> frozenset[int]:
        return frozenset(layer.sites(n))

    def layer_for(kind: GateLayerKind, sites: frozenset[int]) -> GateLayer:
        every = frozenset(range(n))
        if sites == every:
            return GateLayer(kind, "all")
        if sites == frozenset(k for k in range(n) if (k + 1) % 2 == 0):
            return GateLayer(kind, "even")
        if sites == frozenset(k for k in range(n) if (k + 1) % 2 == 1):
            return GateLayer(kind, "odd")
        return GateLayer(kind, tuple(sorted(k + 1 for k in sites)))

    changed = True
    while changed:
        changed = False
        out: list[GateLayer | AnalogSegment] = []
        i = 0
        while i < len(steps):
            a = steps[i]
            b = steps[i + 1] if i + 1 < len(steps) else None
            if isinstance(a, GateLayer) and isinstance(b, GateLayer):
                sa, sb = support_of(a), support_of(b)
                if sa == sb:
                    k = compose_kinds(a.kind, b.kind)
                    if k is GateLayerKind.IDENTITY:
                        i += 2
                        changed = True
                        continue
                    if k is not None:
                        out.append(layer_for(k, sa))
                        i += 2
                        changed = True
                        continue
                elif a.kind is b.kind and not (sa & sb):
                    out.append(layer_for(a.kind, sa | sb))
                    i += 2
                    changed = True
                    continue
            out.append(a)
            i += 1
        steps = out
    return Schedule(
        n=n, steps=tuple(steps), repetitions=schedule.repetitions, model=schedule.model
    )


# ----------------------------------------------------------------------
# synthesis and simulation
# ----------------------------------------------------------------------


def _segment_unitary(
    s: AnalogSegment, dense_limit: int, tol: float
) -> np.ndarray:
    if isinstance(s.analog, PauliSum):
        return expm_hermitian(s.analog, s.duration, dense_limit)
    u, _ = propagate_unitary(
        s.analog, s.duration, tol=tol, dense_limit=dense_limit
    )
    return u


def block_unitary(
    schedule: Schedule,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    tol: float = 1e-10,
) -> np.ndarray:
    """Dense unitary of one block (steps composed in application order)."""
    _check_dense(schedule.n, dense_limit, "block_unitary")
    dim = 1 << schedule.n
    u = np.eye(dim, dtype=complex)
    for step in schedule.steps:
        if isinstance(step, GateLayer):
            u = layer_unitary(step, schedule.n, dense_limit) @ u
        else:
            u = _segment_unitary(step, dense_limit, tol) @ u
    return u


def schedule_unitary(
    schedule: Schedule,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    tol: float = 1e-10,
) -> np.ndarray:
    """Dense unitary of the full schedule (block repeated M times)."""
    block = block_unitary(schedule, dense_limit, tol)
    return np.linalg.matrix_power(block, schedule.repetitions)


@dataclass
class SimulationTrace:
    """Per-block expectation values for a simulated schedule."""

    times: np.ndarray  # time after each block
    norms: np.ndarray  # state norm after each block
    expectations: np.ndarray  # shape (blocks, observables), real parts
    observable_names: tuple[str, ...]


def _step_applier(
    step: GateLayer | AnalogSegment, n: int, dense_limit: int, tol: float
) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(step, GateLayer):
        return lambda psi: apply_layer(step, psi, n)
    if isinstance(step.analog, PauliSum):
        if n <= dense_limit:
            u = expm_hermitian(step.analog, step.duration, dense_limit)
            return lambda psi: u @ psi
        gen = (-1j * step.duration) * step.analog.to_sparse()
        return lambda psi: scipy.sparse.linalg.expm_multiply(gen, psi)
    u, _ = propagate_unitary(step.analog, step.duration, tol=tol, dense_limit=dense_limit)
    return lambda psi: u @ psi


def simulate(
    schedule: Schedule,
    psi0: np.ndarray,
    observables: Sequence[PauliSum],
    observable_names: Sequence[str] | None = None,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    tol: float = 1e-10,
) -> SimulationTrace:
    """Evolve a state through the schedule, recording one row per block."""
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (1 << schedule.n,):
        raise ValueError("initial state size does not match the schedule")
    for obs in observables:
        if obs.n != schedule.n:
            raise ValueError("observable size does not match the schedule")
    appliers = [
        _step_applier(s, schedule.n, dense_limit, tol) for s in schedule.steps
    ]
    tau_block = schedule.analog_time_per_block
    blocks = schedule.repetitions
    times = np.zeros(blocks)
    norms = np.zeros(blocks)
    expectations = np.zeros((blocks, len(observables)))
    for b in range(blocks):
        for f in appliers:
            psi = f(psi)
        times[b] = (b + 1) * tau_block
        norms[b] = float(np.linalg.norm(psi))
        for i, obs in enumerate(observables):
            expectations[b, i] = float(obs.expectation(psi).real)
    names = tuple(
        observable_names
        if observable_names is not None
        else (f"obs{i}" for i in range(len(observables)))
    )
    return SimulationTrace(times, norms, expectations, names)


def block_error(
    m: TargetModel,
    tau: float | None = None,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> float:
    """Phase-insensitive distance of one block from exp(-i H_target tau)."""
    model = m if tau is None else replace(m, tau=tau)
    schedule = compile_model(replace(model, repetitions=1))
    u_block = block_unitary(schedule, dense_limit)
    u_target = expm_hermitian(target_hamiltonian(model), model.tau, dense_limit)
    return phase_insensitive_distance(u_block, u_target)
