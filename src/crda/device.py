"""Device parameters, drive configurations, and lattice geometry.

All frequencies are angular with hbar = 1; time is measured in inverse
angular frequency. Site labels in public APIs follow the 1-based chain
convention (site k maps to internal index k - 1).

A qubit k driven at its right neighbour's resonance realizes a
cross-resonance bond with effective strength J_k = -g_k * Omega_k / (4 * delta_k),
where delta_k = omega_q[k] - omega[k] is the drive detuning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "DeviceParams",
    "DriveConfig",
    "Lattice",
    "effective_coupling",
    "load_config",
]


class DriveConfig(Enum):
    """Which qubits carry a drive: every qubit, or only one sublattice."""

    ALL = "all"
    ODD = "odd"
    EVEN = "even"


@dataclass(frozen=True)
class DeviceParams:
    """Per-qubit drive settings and per-bond static couplings.

    Arrays are length ``n`` for per-qubit fields and length ``n - 1`` for
    the bond couplings ``g`` (open-chain convention); every entry is finite.
    """

    n: int
    omega_q: np.ndarray  # qubit resonance frequencies
    omega: np.ndarray  # drive frequencies
    Omega: np.ndarray  # drive amplitudes
    phi: np.ndarray  # drive phases (radians)
    g: np.ndarray  # bond couplings, bond k joins sites k, k+1

    def __post_init__(self) -> None:
        for name in ("omega_q", "omega", "Omega", "phi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (self.n,):
                raise ValueError(f"{name} must have length n={self.n}")
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if g.shape not in {(self.n - 1,), (self.n,)}:
            raise ValueError("g must have length n-1 (open) or n (periodic)")
        for name in ("omega_q", "omega", "Omega", "phi", "g"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def delta(self) -> np.ndarray:
        """Drive detunings omega_q - omega."""
        return self.omega_q - self.omega

    @property
    def xi(self) -> np.ndarray:
        """Drive-axis mixing angles, atan2(delta, Omega).

        atan2 keeps the undriven limit Omega -> 0 regular (xi -> pi/2 for
        positive detuning) where the raw tangent ratio delta/Omega blows up.
        """
        return np.arctan2(self.delta, self.Omega)

    @property
    def eta(self) -> np.ndarray:
        """Generalized Rabi frequencies sqrt(delta^2 + Omega^2)."""
        return np.hypot(self.delta, self.Omega)

    def is_driven(self, k: int) -> bool:
        """Whether 0-based qubit k carries a nonzero drive amplitude."""
        return self.Omega[k] != 0.0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def uniform_chain(
        cls,
        n: int,
        g: float,
        delta: float,
        Omega: float,
        phi: float = 0.0,
        omega: float = 0.0,
    ) -> "DeviceParams":
        """Chain with identical (g, delta, Omega, phi) on every driven site."""
        return cls(
            n=n,
            omega_q=np.full(n, omega + delta),
            omega=np.full(n, omega),
            Omega=np.full(n, Omega),
            phi=np.full(n, phi),
            g=np.full(n - 1, g),
        )

    @classmethod
    def cr_chain(
        cls,
        omega_q: np.ndarray,
        g: float | np.ndarray,
        Omega: float | np.ndarray,
        drive: DriveConfig = DriveConfig.ALL,
    ) -> "DeviceParams":
        """Chain where each driven qubit is tuned to its right neighbour.

        Driven qubit k gets omega[k] = omega_q[k+1]; undriven qubits sit
        at their own resonance (zero detuning, zero amplitude), the
        standard target-qubit parameter assignment. Every drive phase is 0.
        The last qubit is never driven (it has no right neighbour).
        """
        omega_q = np.asarray(omega_q, dtype=float)
        n = omega_q.size
        Omega_in = np.broadcast_to(np.asarray(Omega, dtype=float), (n,)).copy()
        omega = omega_q.copy()
        Om = np.zeros(n)
        for k in range(n - 1):
            site = k + 1  # 1-based
            if drive is DriveConfig.ODD and site % 2 == 0:
                continue
            if drive is DriveConfig.EVEN and site % 2 == 1:
                continue
            omega[k] = omega_q[k + 1]
            Om[k] = Omega_in[k]
        g_arr = np.broadcast_to(np.asarray(g, dtype=float), (n - 1,)).copy()
        return cls(n=n, omega_q=omega_q, omega=omega, Omega=Om, phi=np.zeros(n), g=g_arr)

    @classmethod
    def from_config(cls, cfg: Mapping) -> "DeviceParams":
        n = int(cfg["n"])

        def per_site(name: str, count: int = n) -> np.ndarray:
            arr = np.full(count, float(cfg.get(name, 0.0)))
            for k in range(1, count + 1):
                key = f"{name}.{k}"
                if key in cfg:
                    arr[k - 1] = float(cfg[key])
            return arr

        return cls(
            n=n,
            omega_q=per_site("omega_q"),
            omega=per_site("omega"),
            Omega=per_site("Omega"),
            phi=per_site("phi"),
            g=per_site("g", n - 1),
        )

    def uniform(self) -> tuple[float, float, float]:
        """The shared (g, delta, Omega) of a uniform chain.

        Only driven qubits are required to agree; undriven targets are
        allowed to carry the (0, 0) assignment.
        """
        if not self.g.size:
            raise ValueError("a uniform chain needs at least one bond (two sites)")
        delta, Omega, g = self.delta.tolist(), self.Omega.tolist(), self.g.tolist()
        driven = [k for k in range(self.n) if Omega[k] != 0.0]
        if not driven:
            return g[0], delta[0], 0.0
        for values in ([delta[k] for k in driven], [Omega[k] for k in driven], g):
            if len({round(v, 12) for v in set(values)}) > 1:  # each distinct value rounded once
                raise ValueError("device parameters are not uniform")
        return g[0], delta[driven[0]], Omega[driven[0]]


def effective_coupling(p: DeviceParams, k: int) -> float:
    """Signed cross-resonance coupling of 1-based bond k.

    J_k = -g_k * Omega_k / (4 * delta_k). An undriven control (Omega = 0)
    contributes zero; a driven control with zero detuning is an error.
    """
    if not 1 <= k <= p.g.size:
        raise ValueError(f"bond index {k} outside 1..{p.g.size}")
    i = k - 1
    if p.Omega[i] == 0.0:
        return 0.0
    d = p.delta[i]
    if d == 0.0:
        raise ZeroDivisionError(f"zero detuning on driven qubit {k}")
    return float(-p.g[i] * p.Omega[i] / (4.0 * d))


@dataclass(frozen=True)
class Lattice:
    """1D chain or 2D rectangular lattice with open or periodic boundary.

    2D sites are addressed by 1-based coordinates (i, j) with i along the
    first axis (extent nx); the linear index is (j-1)*nx + (i-1).
    """

    dim: int
    nx: int
    ny: int = 1
    boundary: str = "open"

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("extents must be positive")
        if self.dim == 1 and self.ny != 1:
            raise ValueError("1D lattice must have ny = 1")

    @classmethod
    def chain(cls, n: int, boundary: str = "open") -> "Lattice":
        return cls(dim=1, nx=n, ny=1, boundary=boundary)

    @classmethod
    def square(cls, nx: int, ny: int | None = None, boundary: str = "periodic") -> "Lattice":
        return cls(dim=2, nx=nx, ny=ny if ny is not None else nx, boundary=boundary)

    @property
    def n_sites(self) -> int:
        return self.nx * self.ny

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"

    def require_even_extents(self) -> None:
        # The checkerboard sublattices close around a periodic boundary
        # only on even extents.
        if self.nx % 2 or (self.dim == 2 and self.ny % 2):
            raise ValueError(
                f"periodic sublattice pattern needs even extents (got {self.nx} x {self.ny})"
            )

    def site_index(self, i: int, j: int = 1) -> int:
        """0-based linear index of 1-based coordinates, with periodic wrap."""
        if self.periodic:
            i = (i - 1) % self.nx + 1
            j = (j - 1) % self.ny + 1
        if not (1 <= i <= self.nx and 1 <= j <= self.ny):
            raise ValueError(f"site ({i}, {j}) outside open lattice")
        return (j - 1) * self.nx + (i - 1)

    def bonds(self) -> Iterator[tuple[int, int, bool]]:
        """Nearest-neighbour bonds as 0-based ``(first, second, odd)``.

        Each site, in index order, bonds to its +x then its +y neighbour,
        wrapping when periodic. ``odd`` is the checkerboard sublattice of
        the first site, (i + j) even in 1-based coordinates: on a chain,
        bond k (sites k, k+1) is odd for odd k. A periodic extent of 1
        yields no self-bond; a periodic extent of 2 yields two bonds
        between the same pair (ring multigraph).
        """
        nx, ny, wrap = self.nx, self.ny, self.periodic
        for s in range(self.n_sites):
            i, j = s % nx, s // nx
            odd = (i + j) % 2 == 0
            if i + 1 < nx or (wrap and nx > 1):
                yield s, s + 1 if i + 1 < nx else s - i, odd
            if j + 1 < ny or (wrap and ny > 1):
                yield s, s + nx if j + 1 < ny else i, odd


def load_config(path: str | Path) -> dict:
    """Read a flat key-value or JSON configuration file.

    The flat format is one ``key = value`` pair per line with ``#``
    comments; keys may carry 1-based site suffixes such as ``Omega.3``.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key] = value
    return cfg
