"""Builders for every spin Hamiltonian used by the simulation protocols.

The family tree, in physics terms:

* The driven coupled-transmon chain has a lab-frame Hamiltonian with
  single-qubit resonance terms, cosine drives, and static xx couplings.
* In the "quad frame" (drive rotation, then drive-axis rotation, then
  generalized-Rabi rotation) the chain reduces, to first order in
  Omega/delta and after a rotating-wave approximation, to the purely
  two-local cross-resonance chain H = J * sum_k x_k z_{k+1}. The lattice
  kinds (one bond walk) and the device chain (:func:`build_qf_effective`)
  alike read their letters and signs from the one ``_PHASE_CHAINS`` table.
* Single-qubit gate layers toggle that chain into xx/zz, xx/yy, zz/yy
  sublattice forms, whose sums realize Ising (zz), XY (xx + yy) and
  Heisenberg (xx + yy + zz) target models.
* The 2D analogues are the same sublattice patterns laid on the
  checkerboard of a square lattice: every bond, along x or y, takes the
  odd entries when its first site (i, j) has i + j even and the even
  entries otherwise. A periodic lattice needs even extents whenever the
  odd and even entries differ, for the checkerboard to close.
* "Original" variants keep the oscillating terms the rotating-wave step
  discards; the difference against the effective form is the synthesis
  defect whose norm the error analysis quantifies.

All builders return Hermitian :class:`~crda.pauli.PauliSum` objects.
Physics descriptions use 1-based chain/lattice coordinates; every family
walks its bonds as 0-based mask bits through
:meth:`~crda.device.Lattice.bonds`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .device import DeviceParams, DriveConfig, Lattice, _cr_coupling, effective_coupling
from .pauli import (
    PauliSum,
    _FoldPlan,
    _check_memory,
    _from_rows,
    _from_sorted,
    _left_sum,
    _masks,
    _summed,
)

__all__ = [
    "HamiltonianKind",
    "Sinusoid",
    "TimeDependentHamiltonian",
    "build_canonical",
    "build_lab_frame",
    "lab_frame_hamiltonian",
    "rotating_frame_hamiltonian",
    "build_qf_effective",
    "build_org",
    "org_hamiltonian",
    "build_delta",
    "delta_hamiltonian",
    "translate_2d",
]


class HamiltonianKind(Enum):
    """Registry of the named Hamiltonians, keyed by their CLI spelling."""

    LAB_FRAME = "lab"
    QF_EFFECTIVE = "qf"
    QF_EFFECTIVE_ODD = "qf_odd"
    QF_EFFECTIVE_EVEN = "qf_even"
    CONTROL = "control"
    ORG = "org"
    DELTA_H = "delta"
    H_EVEN = "h_even"
    H_ODD = "h_odd"
    H_EVEN_PRIME = "h_even_prime"
    H_ODD_PRIME = "h_odd_prime"
    H1 = "h1"
    H2 = "h2"
    H_ZZ = "h_zz"
    H_XY_1D = "h_xy"
    H_2D_ODD = "h_2d_odd"
    H_2D_EVEN = "h_2d_even"
    H_I = "h_i"
    H_II = "h_ii"
    H_XY_2D = "h_xy_2d"
    H_E = "h_e"
    H_E_PRIME = "h_e_prime"
    H_E_DOUBLE_PRIME = "h_e_double_prime"
    H_HEIS = "h_heis"
    ORG_XY = "org_xy"
    DELTA_XY = "delta_xy"
    ORG_ZZ = "org_zz"
    DELTA_ZZ = "delta_zz"


# One weight factor: ("cos" | "sin", angular frequency omega, phase) is
# cos or sin of omega * t + phase.
Sinusoid = tuple[str, float, float]

_TRIG = {"cos": np.cos, "sin": np.sin}


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """Sum of static Pauli sums, each scaled by a product of sinusoids.

    Each piece is ``(PauliSum, weight)``, where the weight is a tuple of
    :data:`Sinusoid` factors whose product multiplies the sum; the empty
    tuple is the constant 1. Weights are data, so ``frequencies`` (and the
    fastest one, which integrators resolve) are read off the factors.

    The pieces' strings never change, so their keys are grouped once, at
    the first :meth:`weighted_sum`, into a fold plan
    (:class:`~crda.pauli._FoldPlan`) that every later call reuses. The plan
    is kept outside the fields, so ``==``, ``hash`` and ``repr`` do not see
    it; it is read-only and stored in one assignment, so threads may share
    a chain.
    """

    n: int
    pieces: tuple[tuple[PauliSum, tuple[Sinusoid, ...]], ...]

    def weights(self, times: float | np.ndarray) -> np.ndarray:
        """Piece weights at ``times``, shape ``(len(pieces), *times.shape)``."""
        times = np.asarray(times, dtype=float)
        out = np.ones((len(self.pieces), *times.shape))
        for i, (_, weight) in enumerate(self.pieces):
            for fn, omega, phase in weight:
                out[i] *= _TRIG[fn](omega * times + phase)
        return out

    @functools.cached_property
    def _plan(self) -> _FoldPlan:
        return _FoldPlan(self.n, [ps for ps, _ in self.pieces])

    def weighted_sum(self, scalars: Sequence[float] | np.ndarray) -> PauliSum:
        """The pieces' Pauli sums scaled by one scalar per piece, summed in order.

        Bit for bit the loop ``out = out + float(c) * ps`` from the zero sum,
        folded through the chain's plan: one scaling of every term, then one
        vector step per bucket of terms that share a key, with no regrouping
        (:class:`~crda.pauli._FoldPlan`). Raises ``ValueError`` unless there
        is one scalar per piece, and on a non-finite weight.
        """
        scalars = [float(c) for c in scalars]
        if len(scalars) != len(self.pieces):
            raise ValueError(f"{len(scalars)} scalars for {len(self.pieces)} pieces")
        return self._plan(scalars)

    def at(self, t: float) -> PauliSum:
        return self.weighted_sum(self.weights(t))

    def integral(self, t: float) -> PauliSum:
        """The exact integral from 0 to ``t``, the pieces summed by :meth:`weighted_sum`.

        A weight expands, factor by factor (cos x = (e^ix + e^-ix) / 2 and
        sin x = (e^ix - e^-ix) / 2i), into terms c e^(i (Omega s + Phi)) at
        the sums and differences of its frequencies. A term integrates to
        c t e^(i Phi) at Omega = 0, else to c e^(i (Omega t / 2 + Phi)) 2
        sin(Omega t / 2) / Omega, which keeps its digits for small Omega t;
        the weight's integral is the real part of the sum. Raises
        ``ValueError`` when ``max_frequency * t`` (>= every |Omega t|) is not finite.
        """
        if not math.isfinite(self.max_frequency * t):
            raise ValueError(f"the phase {self.max_frequency} * {t} is not finite")
        scalars = []
        for _, weight in self.pieces:
            terms = [(1.0 + 0j, 0.0, 0.0)]  # (c, Omega, Phi)
            for fn, omega, phase in weight:
                terms = [(c * (0.5 if fn == "cos" else -0.5j * s), w + s * omega, p + s * phase)
                         for c, w, p in terms for s in (1.0, -1.0)]
            total = 0j
            for c, omega, phase in terms:
                size = t if omega == 0.0 else 2.0 * math.sin(0.5 * omega * t) / omega
                total += c * cmath.exp(1j * (0.5 * omega * t + phase)) * size
            scalars.append(total.real)
        return self.weighted_sum(scalars)

    @property
    def frequencies(self) -> tuple[float, ...]:
        """Top angular frequency of each non-constant weight, distinct, ascending.

        A product of sinusoids at omega_1 .. omega_m holds no frequency above
        |omega_1| + ... + |omega_m|, so that sum stands for the weight.
        """
        return tuple(sorted({_left_sum(abs(om) for _, om, _ in w) for _, w in self.pieces if w}))

    @property
    def max_frequency(self) -> float:
        return max(self.frequencies, default=0.0)


# ----------------------------------------------------------------------
# bond families
# ----------------------------------------------------------------------


# Bond entries (letter on the first site, letter on the second, weight).
BondEntries = tuple[tuple[str, str, float], ...]


def _row(coeff: float, *letters: tuple[int, str]) -> tuple[int, int, float]:
    """``(x, z, coeff)`` mask row of the string with each letter on its 0-based site."""
    return (*_masks(letters), coeff)


def _bond_family(
    lat: Lattice,
    odd: BondEntries,
    even: BondEntries,
    j: float,
    bonds: Sequence[tuple[int, int, bool]] | None = None,
) -> PauliSum:
    """Sum over bonds with different letters on odd and even bonds.

    A bond is odd when its first site is on the odd checkerboard sublattice
    (see :meth:`~crda.device.Lattice.bonds`). The pattern closes around a
    periodic boundary only on even extents, so a periodic lattice needs
    them when the odd and even entries differ. ``bonds`` defaults to every
    bond of ``lat``, at most ``lat.dim`` a site, whose masks are refused
    for memory (:class:`~crda.pauli.DenseLimitError`) before any is built:
    a row holds two n-bit Python-int masks and then two rows of ``ceil(n /
    64)`` mask words, 32 bytes per word of a mask, counted once.
    """
    n = lat.n_sites
    if lat.periodic and odd != even:
        lat.require_even_extents()
    if bonds is None:
        _check_memory(32 * -(-n // 64) * n * lat.dim * max(len(odd), len(even)), "bond family")
    rows = [
        _row(j * w, (s, l1), (t, l2))
        for s, t, is_odd in (lat.bonds() if bonds is None else bonds)
        for l1, l2, w in (odd if is_odd else even)
    ]
    return _from_rows(n, rows)


# Drive-phase-sensitive chains J * sum x_k (a cos(phi) + s sin(phi) y)_{k+1}:
# kind -> (letter a, sign s, on odd bonds, on even bonds).
_PHASE_CHAINS: dict[HamiltonianKind, tuple[str, float, bool, bool]] = {
    HamiltonianKind.CONTROL: ("Z", -1.0, True, True),
    HamiltonianKind.QF_EFFECTIVE: ("Z", -1.0, True, True),
    HamiltonianKind.QF_EFFECTIVE_ODD: ("X", 1.0, True, False),
    HamiltonianKind.QF_EFFECTIVE_EVEN: ("X", 1.0, False, True),
}


def _phase_rows(
    kind: HamiltonianKind, bonds: Sequence[tuple[int, int, float, float]], n: int
) -> PauliSum:
    """``kind``'s J x_a (a cos(phi) + s sin(phi) y)_b on ``(a, b, J, phi)`` bonds; no row for a 0.0 factor."""
    letter, sign, _, _ = _PHASE_CHAINS[kind]
    rows = [
        _row(j * w, (a, "X"), (b, second))
        for a, b, j, phi in bonds
        for second, w in ((letter, math.cos(phi)), ("Y", sign * math.sin(phi)))
        if w != 0.0
    ]
    return _from_rows(n, rows)


_XX: BondEntries = (("X", "X", 1.0),)
_YY: BondEntries = (("Y", "Y", 1.0),)
_ZZ: BondEntries = (("Z", "Z", 1.0),)

# Phase-free families: kind -> (lattice dim, odd-bond entries, even-bond entries).
# The 2D rows lay the chain sublattice patterns on the checkerboard.
_BONDS: dict[HamiltonianKind, tuple[int, BondEntries, BondEntries]] = {
    HamiltonianKind.H1: (1, _ZZ, ()),
    HamiltonianKind.H2: (1, (), _ZZ),
    HamiltonianKind.H_ZZ: (1, _ZZ, _ZZ),
    HamiltonianKind.H_EVEN: (1, _XX, _ZZ),
    HamiltonianKind.H_E: (1, _XX, _ZZ),
    HamiltonianKind.H_ODD: (1, _ZZ, _XX),
    HamiltonianKind.H_EVEN_PRIME: (1, _XX, _YY),
    HamiltonianKind.H_ODD_PRIME: (1, _YY, _XX),
    HamiltonianKind.H_E_DOUBLE_PRIME: (1, _YY, _XX),
    HamiltonianKind.H_E_PRIME: (1, _ZZ, _YY),
    HamiltonianKind.H_XY_1D: (1, _XX + _YY, _XX + _YY),
    HamiltonianKind.H_HEIS: (1, _XX + _YY + _ZZ, _XX + _YY + _ZZ),
    HamiltonianKind.H_2D_ODD: (2, _ZZ, _XX),
    HamiltonianKind.H_2D_EVEN: (2, _XX, _ZZ),
    HamiltonianKind.H_I: (2, _XX, _YY),
    HamiltonianKind.H_II: (2, _YY, _XX),
    HamiltonianKind.H_XY_2D: (2, _XX + _YY, _XX + _YY),
}


# ----------------------------------------------------------------------
# 2D translations
# ----------------------------------------------------------------------


def translate_2d(h: PauliSum, lat: Lattice, di: int, dj: int) -> PauliSum:
    """Rigid translation of an operator on a periodic 2D lattice."""
    if lat.dim != 2 or not lat.periodic:
        raise ValueError("translation requires a periodic 2D lattice")
    if h.n != lat.n_sites:
        raise ValueError(f"a {h.n}-site operator on a {lat.n_sites}-site lattice")
    # bit src[b] of each x and z mask row moves to bit b; the padding bits stay put
    src = np.arange(64 * h._x.shape[1])
    src[[lat.site_index(k % lat.nx + 1 + di, k // lat.nx + 1 + dj) for k in range(h.n)]] = range(h.n)
    words = np.concatenate((h._x, h._z)).view(np.uint8)
    bits = np.unpackbits(words, axis=1, bitorder="little").take(src, axis=1)
    x, z = np.split(np.packbits(bits, axis=1, bitorder="little").view(h._x.dtype), 2)
    return _from_sorted(h.n, *_summed(x, z, h._c))


# ----------------------------------------------------------------------
# canonical (time-independent) dispatch
# ----------------------------------------------------------------------


def build_canonical(
    kind: HamiltonianKind,
    lat: Lattice,
    j: float = 1.0,
    phi: float = 0.0,
) -> PauliSum:
    """Construct a time-independent family member on the given lattice.

    Every kind is one bond walk (:func:`_bond_family`): a phase-free family
    lays its ``_BONDS`` entries, and a drive-phase-sensitive chain (the
    control chain and the single-sublattice cross-resonance chains, in
    ``_PHASE_CHAINS``) lays ``("X", a, cos phi)`` and ``("X", "Y", s sin
    phi)`` on its marked bonds and refuses a non-finite ``phi``; everything
    else fixes phi = 0. Strings whose masks would not fit in memory raise
    :class:`~crda.pauli.DenseLimitError` before any is built.
    """
    if kind not in _PHASE_CHAINS and kind not in _BONDS:
        raise ValueError(f"{kind} is not a time-independent family member")
    dim, *entries = _BONDS.get(kind, (1,))
    if lat.dim != dim:
        raise ValueError(f"{kind.value} needs a {dim}D lattice")
    if kind in _PHASE_CHAINS:
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite (got {phi})")
        letter, sign, on_odd, on_even = _PHASE_CHAINS[kind]
        bond = (("X", letter, math.cos(phi)), ("X", "Y", sign * math.sin(phi)))
        entries = (bond if on_odd else (), bond if on_even else ())
    return _bond_family(lat, *entries, j)


# ----------------------------------------------------------------------
# lab and rotating frames (time-dependent)
# ----------------------------------------------------------------------


def lab_frame_hamiltonian(p: DeviceParams) -> TimeDependentHamiltonian:
    """Driven coupled chain in the laboratory frame.

    sum_k [omega_q_k z_k / 2 + Omega_k cos(omega_k t + phi_k) x_k]
    + sum_k g_k x_k x_{k+1} / 2.
    """
    n = p.n
    static = _from_rows(
        n,
        [_row(0.5 * p.omega_q[k], (k, "Z")) for k in range(n) if p.omega_q[k]]
        + [_row(0.5 * p.g[k], (k, "X"), (k + 1, "X")) for k in range(n - 1) if p.g[k]],
    )
    pieces = [(static, ())] if not static.is_zero() else []
    for k in range(n):
        if p.Omega[k] == 0.0:
            continue
        drive = ("cos", float(p.omega[k]), float(p.phi[k]))
        pieces.append((_from_rows(n, [_row(float(p.Omega[k]), (k, "X"))]), (drive,)))
    return TimeDependentHamiltonian(n, tuple(pieces))


def build_lab_frame(p: DeviceParams, t: float) -> PauliSum:
    return lab_frame_hamiltonian(p).at(t)


def rotating_frame_hamiltonian(p: DeviceParams) -> TimeDependentHamiltonian:
    """Chain in the frame co-rotating with every drive, fast terms dropped.

    Keeps the detuning and drive terms plus the flip-flop coupling with
    the slow relative phase phi_k(t) = (omega_k - omega_{k+1}) t + phi_k - phi_{k+1};
    the counter-rotating double-frequency terms are discarded.
    """
    n = p.n
    static = _from_rows(
        n,
        [
            _row(0.5 * v[k], (k, letter))
            for k in range(n)
            for letter, v in (("Z", p.delta), ("X", p.Omega))
            if v[k]
        ],
    )
    pieces = [(static, ())] if not static.is_zero() else []
    for k in range(n - 1):
        if p.g[k] == 0.0:
            continue
        a = float(p.omega[k] - p.omega[k + 1])
        b = float(p.phi[k] - p.phi[k + 1])
        w = 0.25 * p.g[k]
        sym = _from_rows(n, [_row(w, (k, "X"), (k + 1, "X")), _row(w, (k, "Y"), (k + 1, "Y"))])
        asym = _from_rows(n, [_row(w, (k, "X"), (k + 1, "Y")), _row(-w, (k, "Y"), (k + 1, "X"))])
        pieces.append((sym, (("cos", a, b),)))
        pieces.append((asym, (("sin", a, b),)))
    return TimeDependentHamiltonian(n, tuple(pieces))


# ----------------------------------------------------------------------
# quad-frame effective chain from device parameters
# ----------------------------------------------------------------------


def build_qf_effective(
    p: DeviceParams, drive: DriveConfig = DriveConfig.ALL
) -> PauliSum:
    """First-order effective chain in the quad frame for a drive layout.

    All-driven: sum_k J_k x_k (z cos - y sin)(phi_k - phi_{k+1}) with the
    signed J_k = -g_k Omega_k / (4 delta_k).

    Single-sublattice driving against undriven targets instead yields
    sum over driven bonds of (g Omega / 4 delta) x_k (x cos(phi_k) + y sin(phi_k))
    on the target site; the undriven-target frame flips the sign
    convention relative to the all-driven case. Targets must carry
    Omega = 0 and zero detuning.
    """
    if drive is DriveConfig.ALL:  # an uncoupled bond's phases are never read
        couplings = (effective_coupling(p, bond) for bond in range(1, p.n))
        bonds = [
            (k, k + 1, j, p.phi[k] - p.phi[k + 1]) for k, j in enumerate(couplings) if j != 0.0
        ]
        return _phase_rows(HamiltonianKind.QF_EFFECTIVE, bonds, p.n)
    first = int(drive is DriveConfig.EVEN)  # 0-based index of the first control
    for k in range(1 - first, p.n, 2):
        if p.is_driven(k):
            raise ValueError(f"qubit {k + 1} is driven but assigned a target role")
    bonds = []
    for k in filter(p.is_driven, range(first, p.n - 1, 2)):
        if p.delta[k + 1] != 0.0 or p.Omega[k + 1] != 0.0:
            raise ValueError(f"target qubit {k + 2} must be undriven with zero detuning")
        bonds.append((k, k + 1, -effective_coupling(p, k + 1), p.phi[k]))
    kind = HamiltonianKind.QF_EFFECTIVE_ODD if first == 0 else HamiltonianKind.QF_EFFECTIVE_EVEN
    return _phase_rows(kind, bonds, p.n)


# ----------------------------------------------------------------------
# original (pre-RWA) Hamiltonians and synthesis defects
# ----------------------------------------------------------------------


def _read_only(h: TimeDependentHamiltonian) -> TimeDependentHamiltonian:
    """``h`` with every piece's arrays made read-only, so a kept result can be shared."""
    for ps, _ in h.pieces:
        for a in (ps._x, ps._z, ps._c):
            a.flags.writeable = False
    return h


def org_hamiltonian(kind: HamiltonianKind, p: DeviceParams) -> TimeDependentHamiltonian:
    """Time-dependent original Hamiltonian for a uniform chain.

    ``kind`` selects the frame: the bare quad-frame chain, or its XY- and
    ZZ-protocol toggled counterparts. Every weight is a product of
    cos/sin(delta t) and cos/sin(2 delta t); the target-qubit frame phase
    of the ZZ form is fixed at delta * t, so its weights are products of
    two delta-sinusoids. The result is kept per ``(kind, n, g, delta,
    Omega)`` (:func:`_org_chain`) and shared: its sums are read-only.
    """
    return _org_chain(kind, p.n, *p.uniform())


@functools.lru_cache(maxsize=64)
def _org_chain(
    kind: HamiltonianKind, n: int, g: float, delta: float, Omega: float
) -> TimeDependentHamiltonian:
    """:func:`org_hamiltonian` of a uniform chain's quantities, built once per key."""
    j_signed = _cr_coupling(g, delta, Omega)
    r = Omega / delta
    q = 0.25 * g
    K = HamiltonianKind
    chain = Lattice.chain(n)

    def bonds(pairs: Sequence[tuple[str, str, float]]) -> PauliSum:
        return _bond_family(chain, pairs, pairs, 1.0)

    cos1, sin1 = ("cos", delta, 0.0), ("sin", delta, 0.0)
    cos2, sin2 = ("cos", 2 * delta, 0.0), ("sin", 2 * delta, 0.0)

    if kind is K.ORG:
        pieces = (
            (bonds([("Z", "Z", q), ("Y", "Y", q)]), (cos1,)),
            (bonds([("Y", "Z", q), ("Z", "Y", -q)]), (sin1,)),
            (bonds([("X", "Z", j_signed)]), ()),
            (bonds([("Z", "X", -q * r)]), (cos2,)),
            (bonds([("Y", "X", -q * r)]), (sin2,)),
        )
    elif kind is K.ORG_XY:
        pieces = (
            (bonds([("X", "X", j_signed), ("Y", "Y", j_signed)]), ()),
            (bonds([("X", "Y", q), ("Y", "X", q), ("Z", "Z", -2 * q)]), (cos1,)),
            (
                bonds([("Z", "Y", q), ("Z", "X", -q), ("X", "Z", q), ("Y", "Z", -q)]),
                (sin1,),
            ),
            (bonds([("Z", "Y", q * r), ("Z", "X", -q * r)]), (sin2,)),
            (bonds([("Y", "Y", -q * r), ("X", "X", -q * r)]), (cos2,)),
        )
    elif kind is K.ORG_ZZ:
        pieces = (
            (bonds([("Z", "Z", -j_signed)]), ()),
            (bonds([("X", "Z", -q), ("Y", "Y", q)]), (cos1,)),
            (bonds([("Y", "Z", q), ("X", "Y", q)]), (sin1,)),
            (bonds([("Z", "Z", q * r)]), (cos1,)),
            (bonds([("Z", "X", -q), ("Y", "Y", q)]), (cos1, cos1)),
            (bonds([("Z", "Y", q), ("Y", "X", q)]), (cos1, sin1)),
            (bonds([("Y", "Z", q * r)]), (sin1,)),
            (bonds([("Z", "Y", -q), ("Y", "X", -q)]), (sin1, cos1)),
            (bonds([("Z", "X", -q), ("Y", "Y", q)]), (sin1, sin1)),
        )
    else:
        raise ValueError(f"{kind} is not an original-Hamiltonian kind")
    return _read_only(TimeDependentHamiltonian(n, pieces))


def build_org(kind: HamiltonianKind, p: DeviceParams, t: float) -> PauliSum:
    return org_hamiltonian(kind, p).at(t)


# Defect kind -> (original kind, effective kind, its coupling over J = -g Omega / (4 delta)).
_DELTA_OF = {
    HamiltonianKind.DELTA_H: (HamiltonianKind.ORG, HamiltonianKind.CONTROL, 1.0),
    HamiltonianKind.DELTA_XY: (HamiltonianKind.ORG_XY, HamiltonianKind.H_XY_1D, 1.0),
    HamiltonianKind.DELTA_ZZ: (HamiltonianKind.ORG_ZZ, HamiltonianKind.H_ZZ, -1.0),
}


def delta_hamiltonian(kind: HamiltonianKind, p: DeviceParams) -> TimeDependentHamiltonian:
    """Synthesis defect: the original Hamiltonian minus its effective model.

    The subtracted effective model carries the frame-appropriate signed
    coupling: -g Omega / (4 delta) for the control and XY frames,
    +g Omega / (4 delta) for the ZZ frame. It enters as one constant
    piece holding the negated sum. Kept and shared as
    :func:`org_hamiltonian` is (:func:`_delta_chain`).
    """
    if kind not in _DELTA_OF:
        raise ValueError(f"{kind} is not a synthesis-defect kind")
    return _delta_chain(kind, p.n, *p.uniform())


@functools.lru_cache(maxsize=64)
def _delta_chain(
    kind: HamiltonianKind, n: int, g: float, delta: float, Omega: float
) -> TimeDependentHamiltonian:
    """:func:`delta_hamiltonian` of a uniform chain's quantities, built once per key."""
    org_kind, eff_kind, sign = _DELTA_OF[kind]
    org = _org_chain(org_kind, n, g, delta, Omega)
    eff = build_canonical(eff_kind, Lattice.chain(n), j=sign * _cr_coupling(g, delta, Omega))
    return _read_only(TimeDependentHamiltonian(n, org.pieces + ((-eff, ()),)))


def build_delta(kind: HamiltonianKind, p: DeviceParams, t: float) -> PauliSum:
    return delta_hamiltonian(kind, p).at(t)
