"""Single-qubit gate layers, symbolic toggling, and frame verification.

A gate layer is one single-qubit unitary repeated over a site subset.
The layers used here are Clifford-like on Pauli strings (including the
axis-cycling rotation about (x+y+z)/sqrt(3)), so conjugating a Pauli sum
maps strings to signed strings exactly; :func:`toggle` performs that
symbolically without any matrices. The gate matrices are the one source:
each kind's signed letter images, its inverse and every exact pairwise
composition are derived from them once at import.

The module also carries the numerical side: the lab-to-quad-frame
rotation pipeline, the approximate quad-frame entry unitary for driven
qubits, a Gauss-Legendre commutator-corrected Magnus propagator for
time-dependent Hamiltonians, and the end-to-end check that integrated
dynamics match the first-order effective chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .device import DeviceParams, DriveConfig
from .hamiltonians import (
    TimeDependentHamiltonian,
    build_qf_effective,
    lab_frame_hamiltonian,
    rotating_frame_hamiltonian,
)
from .pauli import (
    ConvergenceError,
    PauliSum,
    expm_hermitian,
    _BITS,
    _check_dense,
    _expm_eigh,
    _from_sorted,
    _grouped,
    _mask_words,
    _popcount,
)

__all__ = [
    "GateLayerKind",
    "GateLayer",
    "layer_unitary",
    "apply_layer",
    "toggle",
    "compose_kinds",
    "u12_unitary",
    "u3_unitary",
    "u4_unitary",
    "frame_pipeline_unitary",
    "uqf_approx",
    "unitarity_defect",
    "phase_insensitive_distance",
    "propagate_unitary",
    "verify_effective",
    "FrameVerification",
]

_SQ = 1.0 / math.sqrt(2.0)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)


class GateLayerKind(Enum):
    HADAMARD = "h"
    RX90 = "rx90"  # exp(-i pi x / 4)
    RX90DAG = "rx90dag"
    SPHASE = "s"  # exp(-i pi z / 4), swaps x and y axes
    UE = "ue"  # axis cycle exp(-i pi (x+y+z) / (3 sqrt 3))
    UEDAG = "uedag"
    UE2 = "ue2"
    UE2DAG = "ue2dag"
    IDENTITY = "id"


_UE_MAT = 0.5 * (_ID - 1j * (_X + _Y + _Z))

_KIND_MATS = {
    GateLayerKind.HADAMARD: _SQ * (_X + _Z),
    GateLayerKind.RX90: _SQ * (_ID - 1j * _X),
    GateLayerKind.RX90DAG: _SQ * (_ID + 1j * _X),
    GateLayerKind.SPHASE: np.diag([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)]),
    GateLayerKind.UE: _UE_MAT,
    GateLayerKind.UEDAG: _UE_MAT.conj().T,
    GateLayerKind.UE2: _UE_MAT @ _UE_MAT,
    GateLayerKind.UE2DAG: (_UE_MAT @ _UE_MAT).conj().T,
    GateLayerKind.IDENTITY: _ID,
}

# (x bit, z bit) of the letters X, Y, Z.
_LETTER_BITS = tuple(_BITS[p] for p in "XYZ")


def _derive_tables() -> tuple[dict, dict]:
    """Letter images and exact compositions, read off ``_KIND_MATS``.

    A Clifford gate is fixed by where conjugation sends X, Y and Z, so
    U† P U is matched against the six signed Paulis; a product of two
    kinds is matched against every kind's matrix (exactly, not up to a
    phase, so UE then UE2 = -I has no single-layer form).
    """
    kinds = list(GateLayerKind)
    u = np.array([_KIND_MATS[k] for k in kinds])
    paulis = np.array([_X, _Y, _Z])
    signed = np.concatenate([paulis, -paulis])
    conj = np.einsum("kba,pbc,kcd->kpad", u.conj(), paulis, u)
    hit = np.all(np.abs(conj[:, :, None] - signed) < 1e-12, axis=(-2, -1))
    if not hit.any(axis=-1).all():
        raise ValueError("every gate kind must map Pauli letters to signed letters")
    images = {
        kind: tuple((*_LETTER_BITS[s % 3], s >= 3) for s in row)
        for kind, row in zip(kinds, hit.argmax(axis=-1).tolist())
    }
    # products[a, b] is kind b applied after kind a
    products = np.einsum("bij,ajk->abik", u, u)
    same = np.all(np.abs(products[:, :, None] - u) < 1e-12, axis=(-2, -1))
    compose = {(kinds[a], kinds[b]): kinds[k] for a, b, k in zip(*np.nonzero(same))}
    return images, compose


# Per kind, U† P U for P = X, Y, Z as (x bit, z bit, negated).
_IMAGES, _COMPOSE = _derive_tables()
_INVERSE = {a: b for (a, b), k in _COMPOSE.items() if k is GateLayerKind.IDENTITY}


def compose_kinds(first: GateLayerKind, second: GateLayerKind) -> GateLayerKind | None:
    """Kind of the exact composition ``second after first``, if representable.

    Returns IDENTITY when the pair cancels, a single kind when the product
    is again a catalogued gate, and None when no exact single-layer
    replacement exists (e.g. two quarter x-rotations).
    """
    return _COMPOSE.get((first, second))


@dataclass(frozen=True)
class GateLayer:
    """One single-qubit gate repeated over a support of sites.

    ``support`` is "all", "even", "odd" (1-based site parity) or an
    explicit tuple of distinct 1-based site numbers.
    """

    kind: GateLayerKind
    support: str | tuple[int, ...] = "all"

    def sites(self, n: int) -> tuple[int, ...]:
        """Resolved 0-based site indices."""
        if isinstance(self.support, tuple):
            for s in self.support:
                if not 1 <= s <= n:
                    raise ValueError(f"site {s} outside 1..{n}")
            if len(set(self.support)) != len(self.support):
                raise ValueError(f"repeated site in support {self.support}")
            return tuple(s - 1 for s in self.support)
        if self.support == "all":
            return tuple(range(n))
        if self.support == "even":
            return tuple(k for k in range(n) if (k + 1) % 2 == 0)
        if self.support == "odd":
            return tuple(k for k in range(n) if (k + 1) % 2 == 1)
        raise ValueError(f"unknown support {self.support!r}")

    def inverse(self) -> "GateLayer":
        try:
            return GateLayer(_INVERSE[self.kind], self.support)
        except KeyError:
            raise ValueError(f"no catalogued inverse for {self.kind}") from None


def _kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in reversed(mats):  # site 0 is the least significant bit
        out = np.kron(out, m)
    return out


def layer_unitary(layer: GateLayer, n: int) -> np.ndarray:
    _check_dense(n, "layer_unitary")
    on = set(layer.sites(n))
    u = _KIND_MATS[layer.kind]
    return _kron_chain([u if k in on else _ID for k in range(n)])


# Sites per blocked pass of apply_layer: one 2^4 x 2^4 matmul per block.
# Widths 4 and 5 measured fastest; a blocked einsum was 4-6x slower.
_LAYER_BLOCK = 4


@functools.lru_cache(maxsize=None)
def _block_gate(kind: GateLayerKind, on: tuple[bool, ...]) -> np.ndarray:
    """Kron of ``kind``'s gate over adjacent sites, identity where ``on`` is False.

    Read-only: the cache hands the same array to every caller.
    """
    u = _KIND_MATS[kind]
    g = _kron_chain([u if bit else _ID for bit in on])
    g.flags.writeable = False
    return g


def apply_layer(layer: GateLayer, state: np.ndarray, n: int) -> np.ndarray:
    """Matrix-free application of a gate layer, one ``matmul`` per block of sites.

    ``state``'s first axis is the 2^n basis index: a state, or a unitary's
    columns. Sites ``lo..hi-1`` of a block act through the kron of their
    gates (site ``lo`` least significant) on the ``(2^(n-hi), 2^(hi-lo),
    2^lo * columns)`` view; blocks that hold no layer site are skipped.
    """
    psi = np.asarray(state, dtype=complex)
    if psi.shape[:1] != (1 << n,):
        raise ValueError("state size mismatch")
    sites = set(layer.sites(n))
    if layer.kind is GateLayerKind.IDENTITY:
        return psi.copy()
    shape, columns = psi.shape, psi.size >> n
    for lo in range(0, n, _LAYER_BLOCK):
        hi = min(lo + _LAYER_BLOCK, n)
        on = tuple(k in sites for k in range(lo, hi))
        if any(on):
            view = psi.reshape(1 << (n - hi), 1 << (hi - lo), columns << lo)
            psi = np.matmul(_block_gate(layer.kind, on), view)
    return psi.reshape(shape)


def toggle(h: PauliSum, layer: GateLayer) -> PauliSum:
    """Exact conjugated operator U† h U for a gate layer U.

    Works on the mask words of all strings at once. On the layer's sites each
    letter class (X, Y, Z) is one mask: its image letter is OR-ed in, and its
    sign enters through the parity of the mask's popcount. Strings map one to
    one, so the images need one re-sort and no summing; a weight becomes 0.0 ± c.
    """
    images = _IMAGES[layer.kind]
    x, z = h._x, h._z
    on = _mask_words([sum(1 << k for k in layer.sites(h.n))], x.shape[1])
    nx, nz, odd = x & ~on, z & ~on, 0
    for m, (ix, iz, neg) in zip((x & ~z & on, x & z & on, ~x & z & on), images):
        if ix:
            nx |= m
        if iz:
            nz |= m
        if neg:
            odd ^= _popcount(m)
    order = _grouped(nx, nz)[0]
    return _from_sorted(h.n, nx[order], nz[order], np.where(odd & 1, -h._c, h._c)[order] + 0.0)


def toggle_chain(h: PauliSum, layers: Sequence[GateLayer]) -> PauliSum:
    """Conjugate by a sequence of layers, first layer innermost."""
    out = h
    for layer in layers:
        out = toggle(out, layer)
    return out


# ----------------------------------------------------------------------
# lab -> quad frame rotation pipeline
# ----------------------------------------------------------------------


def _axis_rot(axis: np.ndarray, angle: float) -> np.ndarray:
    # exp(-i angle axis / 2) for a single qubit
    return math.cos(angle / 2) * _ID - 1j * math.sin(angle / 2) * axis


def u12_unitary(p: DeviceParams, t: float) -> np.ndarray:
    """Per-qubit drive rotation exp(-i (omega_k t + phi_k) z_k / 2)."""
    return _kron_chain(
        [_axis_rot(_Z, p.omega[k] * t + p.phi[k]) for k in range(p.n)]
    )


def u3_unitary(p: DeviceParams) -> np.ndarray:
    """Per-qubit drive-axis tilt exp(+i xi_k y_k / 2), xi = atan2(delta, Omega)."""
    return _kron_chain([_axis_rot(_Y, -float(xi)) for xi in p.xi])


def u4_unitary(p: DeviceParams, t: float) -> np.ndarray:
    """Per-qubit generalized-Rabi rotation exp(-i t eta_k x_k / 2)."""
    return _kron_chain([_axis_rot(_X, float(eta) * t) for eta in p.eta])


def frame_pipeline_unitary(p: DeviceParams, t: float) -> np.ndarray:
    """Full frame unitary F(t); states map as psi_frame = F(t)† psi_lab."""
    return u12_unitary(p, t) @ u3_unitary(p) @ u4_unitary(p, t)


def rot_frame_unitary(p: DeviceParams, t: float) -> np.ndarray:
    """Frame factor from the drive-rotating frame into the quad frame."""
    return u3_unitary(p) @ u4_unitary(p, t)


def uqf_approx(p: DeviceParams, t: float) -> np.ndarray:
    """First-order approximate quad-frame entry unitary.

    Per driven qubit: (1/sqrt 2) [1 + i y + (Omega / 2 delta)
    ((1 - i y) cos(delta t) + i (z - x) sin(delta t))]; undriven qubits
    get the identity. Exactly unitary only in the limit Omega/delta -> 0;
    the defect norm grows as (Omega / 2 delta)^2 per driven qubit.
    """
    mats = []
    for k in range(p.n):
        if not p.is_driven(k):
            mats.append(_ID)
            continue
        d = p.delta[k]
        if d == 0.0:
            raise ZeroDivisionError(f"driven qubit {k + 1} has zero detuning")
        eps = p.Omega[k] / (2.0 * d)
        c, s = math.cos(d * t), math.sin(d * t)
        mats.append(
            _SQ * (_ID + 1j * _Y + eps * ((_ID - 1j * _Y) * c + 1j * (_Z - _X) * s))
        )
    return _kron_chain(mats)


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0]), 2))


def phase_insensitive_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over theta of the spectral norm of u - e^{i theta} v, for unitary u, v.

    Both inputs must be unitary. Then ||u - e^{i theta} v|| is the largest
    chord |e^{i phi_k} - e^{i theta}| over the eigenphases phi_k of v†u,
    and the minimum puts theta mid-way along the smallest arc holding
    every phi_k: for an arc of length L it is 2 sin(L / 4).
    """
    phases = np.sort(np.angle(np.linalg.eigvals(v.conj().T @ u)))
    gaps = np.diff(phases, append=phases[0] + 2.0 * math.pi)
    arc = max(0.0, 2.0 * math.pi - float(gaps.max()))  # rounding can dip below 0
    return 2.0 * math.sin(arc / 4.0)


# ----------------------------------------------------------------------
# time-dependent propagation
# ----------------------------------------------------------------------

_GL_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])

# Bytes of one (steps, dim, dim) complex stack in a batched Magnus chunk: the
# steps that share one product tree.
_MAGNUS_CHUNK_BYTES = 1 << 22

# Slices a chunk's node Hamiltonians, Magnus exponents and exponentials are
# formed in; each slice holds about eight stacks of its steps at once.
_MAGNUS_SLICES = 16

# Step-count doublings propagate_unitary tries before giving up.
_MAGNUS_HALVINGS = 14


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """``u[-1] @ ... @ u[0]`` of a ``(k, d, d)`` stack by a pairwise tree."""
    while len(u) > 1:
        if len(u) % 2:
            u = np.concatenate([u[:-2], (u[-1] @ u[-2])[None]])
        u = u[1::2] @ u[0::2]
    return u[0]


def propagate_unitary(
    h: TimeDependentHamiltonian,
    t_final: float,
    tol: float = 1e-8,
) -> tuple[np.ndarray, dict]:
    """Time-ordered propagator U(t_final, 0) by fourth-order Gauss-Legendre Magnus steps.

    The step count doubles until two consecutive resolutions agree to
    ``tol`` in spectral norm; non-convergence within ``_MAGNUS_HALVINGS``
    doublings raises :class:`~crda.pauli.ConvergenceError`. Steps are
    batched (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009): one
    ``h.weights`` call gives the piece weights at both Gauss-Legendre nodes
    of a chunk of steps, one ``einsum`` forms the node Hamiltonians, each
    step's Magnus exponent exp(Omega) comes from one batched ``eigh``, and
    a pairwise tree multiplies the chunk's step unitaries, later steps on
    the left. Chunks hold as many steps as fit a fixed byte budget, so a
    large ``dim`` means short chunks. The weights, exponents and step
    unitaries are formed in ``_MAGNUS_SLICES`` slices of a chunk, into one
    stack of its step unitaries that every chunk reuses; each step's
    unitary is the same whatever slice forms it, so only the chunks decide
    the bits. The first step size resolves ``h.max_frequency``, which is
    read off the weight factors.
    """
    _check_dense(h.n, "propagate_unitary")
    dim = 1 << h.n
    mats = np.array([ps.to_dense() for ps, _ in h.pieces])
    if t_final == 0.0 or not h.pieces:
        return np.eye(dim, dtype=complex), {"steps": 0, "step_size": 0.0, "residual": 0.0}

    def ham(times: np.ndarray) -> np.ndarray:
        """Dense H(t) for every entry of ``times``, shape ``times.shape + (dim, dim)``."""
        w = h.weights(times.ravel())  # (pieces, times.size)
        return np.einsum("pk,pij->kij", w, mats).reshape(*times.shape, dim, dim)

    chunk = max(1, _MAGNUS_CHUNK_BYTES // (16 * dim * dim))
    part = -(-chunk // _MAGNUS_SLICES)
    steps = np.empty((chunk, dim, dim), dtype=complex)

    def run(nsteps: int) -> np.ndarray:
        hstep = t_final / nsteps
        w = math.sqrt(3.0) * hstep * hstep / 12.0
        u = np.eye(dim, dtype=complex)
        for first in range(0, nsteps, chunk):
            k = min(chunk, nsteps - first)
            for lo in range(0, k, part):
                starts = np.arange(first + lo, first + min(lo + part, k)) * hstep
                a1, a2 = -1j * ham(starts + _GL_NODES[:, None] * hstep)
                om = 0.5 * hstep * (a1 + a2) + w * (a2 @ a1 - a1 @ a2)
                steps[lo : lo + len(starts)] = _expm_eigh(1j * om, 1.0)  # i*om is Hermitian
            u = _ordered_product(steps[:k]) @ u
        return u

    # initial resolution: resolve the fastest drive and the local norm scale
    probes = np.array([0.0, 0.37, 0.74]) * t_final
    scale = float(np.linalg.norm(ham(probes), 2, axis=(-2, -1)).max())
    h0 = abs(t_final)
    if scale > 0:
        h0 = min(h0, 0.05 / scale)
    if h.max_frequency > 0:
        h0 = min(h0, (2.0 * math.pi / h.max_frequency) / 40.0)
    nsteps = max(1, math.ceil(abs(t_final) / h0))
    u_prev = run(nsteps)
    for _ in range(_MAGNUS_HALVINGS):
        nsteps *= 2
        u_next = run(nsteps)
        residual = float(np.linalg.norm(u_next - u_prev, 2))
        if residual < tol:
            return u_next, {
                "steps": nsteps,
                "step_size": abs(t_final) / nsteps,
                "residual": residual,
            }
        u_prev = u_next
    raise ConvergenceError(
        f"propagator did not converge to {tol} within {_MAGNUS_HALVINGS} refinements"
    )


# ----------------------------------------------------------------------
# effective-model verification
# ----------------------------------------------------------------------


@dataclass
class FrameVerification:
    """Distance between integrated dynamics and the effective chain."""

    t_final: float
    mode: str
    distance: float
    distance_lab_mapping: float
    integrator: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)


def verify_effective(
    p: DeviceParams,
    t_final: float,
    mode: str = "lab",
    tol: float = 1e-8,
) -> FrameVerification:
    """Integrate the driven chain and compare against the effective model.

    ``mode`` selects the starting description: "lab" integrates the full
    laboratory-frame Hamiltonian, "rotating" starts from the drive-rotating
    frame with counter-rotating terms already dropped. The integrated
    propagator is carried into the quad frame through the rotation
    pipeline and compared, phase-insensitively, against
    exp(-i H_eff t_final). The same comparison mapped back to the starting
    frame is reported alongside (it agrees up to roundoff; both are kept
    so either frame's convention can be audited).
    """
    if mode == "lab":
        gen = lab_frame_hamiltonian(p)
        frame = frame_pipeline_unitary
    elif mode == "rotating":
        gen = rotating_frame_hamiltonian(p)
        frame = rot_frame_unitary
    else:
        raise ValueError("mode must be 'lab' or 'rotating'")
    u_num, info = propagate_unitary(gen, t_final, tol=tol)
    f_end = frame(p, t_final)
    f_start = frame(p, 0.0)
    h_eff = build_qf_effective(p, DriveConfig.ALL)
    u_eff = expm_hermitian(h_eff, t_final)
    u_num_qf = f_end.conj().T @ u_num @ f_start
    d_qf = phase_insensitive_distance(u_num_qf, u_eff)
    u_eff_lab = f_end @ u_eff @ f_start.conj().T
    d_lab = phase_insensitive_distance(u_num, u_eff_lab)
    ratios = {}
    for k in range(p.n):
        if p.is_driven(k) and p.delta[k] != 0.0:
            ratios[f"Omega/delta.{k + 1}"] = float(p.Omega[k] / p.delta[k])
            if k < p.g.size:
                ratios[f"g/delta.{k + 1}"] = float(p.g[k] / p.delta[k])
    return FrameVerification(
        t_final=t_final,
        mode=mode,
        distance=d_qf,
        distance_lab_mapping=d_lab,
        integrator=info,
        ratios=ratios,
    )


def frame_error_scaling(p: DeviceParams, t_final: float) -> tuple[list[float], float]:
    """Lab-frame distances as g and Omega shrink by s = 1, 1/2, 1/4, and the fitted exponent.

    Scaling both couplings by s should shrink the residual roughly as s^2
    at a revival time of the detuning oscillation.
    """
    scales = (1.0, 0.5, 0.25)
    distances = [
        verify_effective(replace(p, Omega=s * p.Omega, g=s * p.g), t_final).distance
        for s in scales
    ]
    slope = float(np.polyfit(np.log(scales), np.log(distances), 1)[0])
    return distances, slope
