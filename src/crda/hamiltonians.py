"""Builders for every spin Hamiltonian used by the simulation protocols.

The family tree, in physics terms:

* The driven coupled-transmon chain has a lab-frame Hamiltonian with
  single-qubit resonance terms, cosine drives, and static xx couplings.
* In the "quad frame" (drive rotation, then drive-axis rotation, then
  generalized-Rabi rotation) the chain reduces, to first order in
  Omega/delta and after a rotating-wave approximation, to the purely
  two-local cross-resonance chain H = J * sum_k x_k z_{k+1}.
* Single-qubit gate layers toggle that chain into xx/zz, xx/yy, zz/yy
  sublattice forms, whose sums realize Ising (zz), XY (xx + yy) and
  Heisenberg (xx + yy + zz) target models, plus 2D analogues built from
  one unit cell tiled over a periodic square lattice.
* "Original" variants keep the oscillating terms the rotating-wave step
  discards; the difference against the effective form is the synthesis
  defect whose norm the error analysis quantifies.

All builders return Hermitian :class:`~crda.pauli.PauliSum` objects.
1-based chain/lattice coordinates are used at this layer; conversion to
0-based mask bits happens through :class:`~crda.device.Lattice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .device import DeviceParams, DriveConfig, Lattice, effective_coupling
from .pauli import PauliSum, PauliTerm

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
    "H_I_CELL_BONDS",
    "H_II_CELL_BONDS",
    "H_2D_ODD_CELL_BONDS",
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

    def weighted_sum(self, scalars: Sequence[float] | np.ndarray) -> PauliSum:
        """The pieces' Pauli sums scaled by one scalar per piece, summed in order."""
        out = PauliSum.zero(self.n)
        for (ps, _), c in zip(self.pieces, scalars):
            out = out + float(c) * ps
        return out

    def at(self, t: float) -> PauliSum:
        return self.weighted_sum(self.weights(t))

    @property
    def frequencies(self) -> tuple[float, ...]:
        """Top angular frequency of each non-constant weight, distinct, ascending.

        A product of sinusoids at omega_1 .. omega_m holds no frequency above
        |omega_1| + ... + |omega_m|, so that sum stands for the weight.
        """
        return tuple(sorted({sum(abs(om) for _, om, _ in w) for _, w in self.pieces if w}))

    @property
    def max_frequency(self) -> float:
        return max(self.frequencies, default=0.0)


# ----------------------------------------------------------------------
# 1D families
# ----------------------------------------------------------------------


# Chain bond entries (letter_left, letter_right, weight).
BondEntries = tuple[tuple[str, str, float], ...]


def _two_site(n: int, s1: int, l1: str, s2: int, l2: str, coeff: float) -> PauliTerm:
    return PauliTerm.from_sites(n, {s1: l1, s2: l2}, coeff)


def _chain_bond_family(
    lat: Lattice,
    odd: Sequence[tuple[str, str, float]],
    even: Sequence[tuple[str, str, float]],
    j: float,
) -> PauliSum:
    """Sum over chain bonds with different letters on odd/even bonds.

    Bond k joins 1-based sites (k, k+1); its parity is the parity of k.
    Entries are (letter_left, letter_right, weight).
    """
    if lat.dim != 1:
        raise ValueError("chain family requires a 1D lattice")
    if lat.periodic and (odd != even):
        lat.require_even_extents()
    n = lat.n_sites
    terms = []
    for k, kp in lat.bonds_1d():
        for l1, l2, w in odd if k % 2 == 1 else even:
            terms.append(
                _two_site(n, lat.site_index(k), l1, lat.site_index(kp), l2, j * w)
            )
    if not terms:
        return PauliSum.zero(n)
    return PauliSum.from_terms(terms)


# Drive-phase-sensitive chains J * sum x_k (a cos(phi) + s sin(phi) y)_{k+1}:
# kind -> (letter a, sign s, on odd bonds, on even bonds).
_PHASE_CHAINS: dict[HamiltonianKind, tuple[str, float, bool, bool]] = {
    HamiltonianKind.CONTROL: ("Z", -1.0, True, True),
    HamiltonianKind.QF_EFFECTIVE: ("Z", -1.0, True, True),
    HamiltonianKind.QF_EFFECTIVE_ODD: ("X", 1.0, True, False),
    HamiltonianKind.QF_EFFECTIVE_EVEN: ("X", 1.0, False, True),
}


def _phase_chain(kind: HamiltonianKind, lat: Lattice, j: float, phi: float) -> PauliSum:
    letter, sign, on_odd, on_even = _PHASE_CHAINS[kind]
    weighted = ((letter, math.cos(phi)), ("Y", sign * math.sin(phi)))
    spec = tuple(("X", b, w) for b, w in weighted if abs(w) > 0)
    return _chain_bond_family(lat, spec if on_odd else (), spec if on_even else (), j)


_XX: BondEntries = (("X", "X", 1.0),)
_YY: BondEntries = (("Y", "Y", 1.0),)
_ZZ: BondEntries = (("Z", "Z", 1.0),)

# Phase-free chains: kind -> (odd-bond entries, even-bond entries).
_CHAIN_BONDS: dict[HamiltonianKind, tuple[BondEntries, BondEntries]] = {
    HamiltonianKind.H1: (_ZZ, ()),
    HamiltonianKind.H2: ((), _ZZ),
    HamiltonianKind.H_ZZ: (_ZZ, _ZZ),
    HamiltonianKind.H_EVEN: (_XX, _ZZ),
    HamiltonianKind.H_E: (_XX, _ZZ),
    HamiltonianKind.H_ODD: (_ZZ, _XX),
    HamiltonianKind.H_EVEN_PRIME: (_XX, _YY),
    HamiltonianKind.H_ODD_PRIME: (_YY, _XX),
    HamiltonianKind.H_E_DOUBLE_PRIME: (_YY, _XX),
    HamiltonianKind.H_E_PRIME: (_ZZ, _YY),
    HamiltonianKind.H_XY_1D: (_XX + _YY, _XX + _YY),
    HamiltonianKind.H_HEIS: (_XX + _YY + _ZZ, _XX + _YY + _ZZ),
}


# ----------------------------------------------------------------------
# 2D families
# ----------------------------------------------------------------------

# Unit-cell bond tables. Offsets are relative to the cell anchor
# (2i - 1, 2j - 1); each entry is (letter, site_a_offset, site_b_offset).
CellBonds = tuple[tuple[str, tuple[int, int], tuple[int, int]], ...]

H_I_CELL_BONDS: CellBonds = (
    ("X", (0, 0), (1, 0)),
    ("Y", (1, 0), (2, 0)),
    ("Y", (0, 1), (1, 1)),
    ("X", (1, 1), (2, 1)),
    ("X", (0, 0), (0, 1)),
    ("Y", (1, 0), (1, 1)),
    ("Y", (0, 1), (0, 2)),
    ("X", (1, 1), (1, 2)),
)

# The companion decomposition swaps the Pauli letter on every bond.
H_II_CELL_BONDS: CellBonds = tuple(
    ({"X": "Y", "Y": "X"}[letter], a, b) for letter, a, b in H_I_CELL_BONDS
)

# Native 2D cross-resonance cell: z-stars on the (odd, odd) and
# (even, even) sites, x-stars on the mixed-parity sites.
H_2D_ODD_CELL_BONDS: CellBonds = (
    ("Z", (0, 0), (0, 1)),
    ("Z", (0, 0), (1, 0)),
    ("Z", (1, 1), (1, 2)),
    ("Z", (1, 1), (2, 1)),
    ("X", (0, 1), (0, 2)),
    ("X", (0, 1), (1, 1)),
    ("X", (1, 0), (1, 1)),
    ("X", (1, 0), (2, 0)),
)

# 2D tilings: kind -> (cell bonds, letter map applied to every bond).
_TILINGS: dict[HamiltonianKind, tuple[CellBonds, dict[str, str] | None]] = {
    HamiltonianKind.H_2D_ODD: (H_2D_ODD_CELL_BONDS, None),
    HamiltonianKind.H_2D_EVEN: (H_2D_ODD_CELL_BONDS, {"Z": "X", "X": "Z"}),
    HamiltonianKind.H_I: (H_I_CELL_BONDS, None),
    HamiltonianKind.H_II: (H_II_CELL_BONDS, None),
    HamiltonianKind.H_XY_2D: (H_I_CELL_BONDS + H_II_CELL_BONDS, None),
}


def _cell_anchor_range(lat: Lattice) -> tuple[range, range]:
    if lat.periodic:
        lat.require_even_extents()
        return range(1, lat.nx // 2 + 1), range(1, lat.ny // 2 + 1)
    return range(1, (lat.nx + 1) // 2 + 1), range(1, (lat.ny + 1) // 2 + 1)


def cell_terms(
    lat: Lattice,
    i: int,
    j: int,
    bonds: CellBonds,
    coupling: float,
    letter_map: dict[str, str] | None = None,
) -> list[PauliTerm]:
    """Terms of one unit cell anchored at cell coordinates (i, j).

    On open lattices, bonds reaching outside the lattice are dropped.
    """
    n = lat.n_sites
    ai, aj = 2 * i - 1, 2 * j - 1
    out = []
    for letter, (d1i, d1j), (d2i, d2j) in bonds:
        s1 = (ai + d1i, aj + d1j)
        s2 = (ai + d2i, aj + d2j)
        if not (lat.in_range(*s1) and lat.in_range(*s2)):
            continue
        if letter_map:
            letter = letter_map[letter]
        out.append(
            _two_site(n, lat.site_index(*s1), letter, lat.site_index(*s2), letter, coupling)
        )
    return out


def _tile_2d(
    lat: Lattice,
    bonds: CellBonds,
    j: float,
    letter_map: dict[str, str] | None = None,
) -> PauliSum:
    if lat.dim != 2:
        raise ValueError("2D family requires a 2D lattice")
    ri, rj = _cell_anchor_range(lat)
    terms = []
    for jj in rj:
        for ii in ri:
            terms.extend(cell_terms(lat, ii, jj, bonds, j, letter_map))
    if not terms:
        return PauliSum.zero(lat.n_sites)
    return PauliSum.from_terms(terms)


def translate_2d(h: PauliSum, lat: Lattice, di: int, dj: int) -> PauliSum:
    """Rigid translation of an operator on a periodic 2D lattice."""
    if lat.dim != 2 or not lat.periodic:
        raise ValueError("translation requires a periodic 2D lattice")
    perm = {}
    for idx in range(lat.n_sites):
        i = idx % lat.nx + 1
        j = idx // lat.nx + 1
        perm[idx] = lat.site_index(i + di, j + dj)
    acc: dict[tuple[int, int], complex] = {}
    for t in h.terms():
        x = z = 0
        for k in range(h.n):
            x |= ((t.x >> k) & 1) << perm[k]
            z |= ((t.z >> k) & 1) << perm[k]
        acc[(x, z)] = acc.get((x, z), 0.0) + t.coeff
    return PauliSum(h.n, acc)


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

    The kind is looked up in the three kind tables: phase-sensitive
    chains, phase-free chain bond families and 2D tilings. ``phi``
    enters only the drive-phase-sensitive forms (the control chain and
    the single-sublattice cross-resonance chains); everything else fixes
    phi = 0.
    """
    if kind in _PHASE_CHAINS:
        return _phase_chain(kind, lat, j, phi)
    if kind in _CHAIN_BONDS:
        return _chain_bond_family(lat, *_CHAIN_BONDS[kind], j)
    if kind in _TILINGS:
        bonds, letter_map = _TILINGS[kind]
        return _tile_2d(lat, bonds, j, letter_map)
    raise ValueError(f"{kind} is not a time-independent family member")


# ----------------------------------------------------------------------
# lab and rotating frames (time-dependent)
# ----------------------------------------------------------------------


def lab_frame_hamiltonian(p: DeviceParams) -> TimeDependentHamiltonian:
    """Driven coupled chain in the laboratory frame.

    sum_k [omega_q_k z_k / 2 + Omega_k cos(omega_k t + phi_k) x_k]
    + sum_k g_k x_k x_{k+1} / 2.
    """
    n = p.n
    static: PauliSum = PauliSum.zero(n)
    for k in range(n):
        if p.omega_q[k] != 0.0:
            static = static + PauliSum.from_sites(n, {k: "Z"}, 0.5 * p.omega_q[k])
    for k in range(n - 1):
        if p.g[k] != 0.0:
            static = static + PauliSum.from_sites(
                n, {k: "X", k + 1: "X"}, 0.5 * p.g[k]
            )
    pieces = [(static, ())] if not static.is_zero() else []
    for k in range(n):
        if p.Omega[k] == 0.0:
            continue
        drive = ("cos", float(p.omega[k]), float(p.phi[k]))
        pieces.append((PauliSum.from_sites(n, {k: "X"}, float(p.Omega[k])), (drive,)))
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
    static = PauliSum.zero(n)
    for k in range(n):
        if p.delta[k] != 0.0:
            static = static + PauliSum.from_sites(n, {k: "Z"}, 0.5 * p.delta[k])
        if p.Omega[k] != 0.0:
            static = static + PauliSum.from_sites(n, {k: "X"}, 0.5 * p.Omega[k])
    pieces = [(static, ())] if not static.is_zero() else []
    for k in range(n - 1):
        if p.g[k] == 0.0:
            continue
        a = float(p.omega[k] - p.omega[k + 1])
        b = float(p.phi[k] - p.phi[k + 1])
        w = 0.25 * p.g[k]
        sym = PauliSum.from_sites(n, {k: "X", k + 1: "X"}, w) + PauliSum.from_sites(
            n, {k: "Y", k + 1: "Y"}, w
        )
        asym = PauliSum.from_sites(n, {k: "X", k + 1: "Y"}, w) - PauliSum.from_sites(
            n, {k: "Y", k + 1: "X"}, w
        )
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
    n = p.n
    terms: list[PauliTerm] = []
    if drive is DriveConfig.ALL:
        for k in range(n - 1):
            jk = effective_coupling(p, k + 1)
            if jk == 0.0:
                continue
            dphi = float(p.phi[k] - p.phi[k + 1])
            c, s = math.cos(dphi), math.sin(dphi)
            if c != 0.0:
                terms.append(_two_site(n, k, "X", k + 1, "Z", jk * c))
            if s != 0.0:
                terms.append(_two_site(n, k, "X", k + 1, "Y", -jk * s))
    else:
        control_parity = 1 if drive is DriveConfig.ODD else 0
        for k in range(n):
            site = k + 1
            if site % 2 != control_parity % 2 and p.is_driven(k):
                raise ValueError(
                    f"qubit {site} is driven but assigned a target role"
                )
        for k in range(n - 1):
            site = k + 1
            if site % 2 != control_parity % 2:
                continue
            if not p.is_driven(k):
                continue
            if p.delta[k + 1] != 0.0 or p.Omega[k + 1] != 0.0:
                raise ValueError(
                    f"target qubit {site + 1} must be undriven with zero detuning"
                )
            jk = -effective_coupling(p, k + 1)
            ph = float(p.phi[k])
            c, s = math.cos(ph), math.sin(ph)
            if c != 0.0:
                terms.append(_two_site(n, k, "X", k + 1, "X", jk * c))
            if s != 0.0:
                terms.append(_two_site(n, k, "X", k + 1, "Y", jk * s))
    if not terms:
        return PauliSum.zero(n)
    return PauliSum.from_terms(terms)


# ----------------------------------------------------------------------
# original (pre-RWA) Hamiltonians and synthesis defects
# ----------------------------------------------------------------------


def _uniform_quantities(p: DeviceParams) -> tuple[int, float, float, float, float]:
    g, delta, Omega = p.uniform()
    if delta == 0.0:
        raise ZeroDivisionError("uniform chain has zero detuning")
    j_signed = -g * Omega / (4.0 * delta)
    return p.n, g, delta, Omega, j_signed


def org_hamiltonian(kind: HamiltonianKind, p: DeviceParams) -> TimeDependentHamiltonian:
    """Time-dependent original Hamiltonian for a uniform chain.

    ``kind`` selects the frame: the bare quad-frame chain, or its XY- and
    ZZ-protocol toggled counterparts. Every weight is a product of
    cos/sin(delta t) and cos/sin(2 delta t); the target-qubit frame phase
    of the ZZ form is fixed at delta * t, so its weights are products of
    two delta-sinusoids.
    """
    n, g, delta, Omega, j_signed = _uniform_quantities(p)
    r = Omega / delta
    q = 0.25 * g
    K = HamiltonianKind
    chain = Lattice.chain(n)

    def bonds(pairs: Sequence[tuple[str, str, float]]) -> PauliSum:
        return _chain_bond_family(chain, pairs, pairs, 1.0)

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
    return TimeDependentHamiltonian(n, pieces)


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
    piece holding the negated sum.
    """
    if kind not in _DELTA_OF:
        raise ValueError(f"{kind} is not a synthesis-defect kind")
    org_kind, eff_kind, sign = _DELTA_OF[kind]
    n, _, _, _, j_signed = _uniform_quantities(p)
    org = org_hamiltonian(org_kind, p)
    eff = build_canonical(eff_kind, Lattice.chain(n), j=sign * j_signed)
    return TimeDependentHamiltonian(n, org.pieces + ((-eff, ()),))


def build_delta(kind: HamiltonianKind, p: DeviceParams, t: float) -> PauliSum:
    return delta_hamiltonian(kind, p).at(t)
