"""Shared dense oracles and reference loops for the test suite.

The oracle path builds matrices straight from pattern strings with its
own Kronecker loop, independent of the package's mask-based encoding,
so dense comparisons actually cross-check the two representations.
The pair-product reference is the plain Python loop over string pairs
that the package's vectorized kernel must reproduce bit for bit; the
algebra references (sum, difference, negation, scaling, adjoint, toggle,
sums of term lists, weighted sums of pieces and the canonical bond
families) are the same operations on a dict of weights by ``(x, z)`` key,
which the package's array algebra must reproduce bit for bit; the CSR
reference fills the matrix one X-mask column at a time, as the package's
row-block build must reproduce byte for byte; the Chebyshev reference
runs the complex recurrence on that matrix, whose bits the package's
propagator must give on the state's real and imaginary parts; and the 2D
translation and Trotter-audit references read every string out as a
``PauliTerm``, as the package's mask-word versions must match bit for bit.
The letter loops encode and decode one letter at a time, as the package's
one letter codec must reproduce; the device-chain reference writes out
every bond row of ``build_qf_effective`` by hand, which the package
derives from its phase-chain table bit for bit. The fusion reference is
the peephole pass loop with its ``changed`` flag, whose steps the
package's pair-rule loop must give on every schedule. Last, the
golden-corpus harness runs every recorded CLI command under two process
configurations, whose outputs must agree byte for byte.
"""

import itertools
import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import settings

# Property tests replay the same examples on every run: no random seed, no
# example database, and no per-example deadline (a loaded host is slow).
# The soak profile (``--hypothesis-profile soak``) replays 2,000 examples
# per test the same way.
settings.register_profile("crda", derandomize=True, database=None, deadline=None)
settings.register_profile("soak", settings.get_profile("crda"), max_examples=2000)
settings.load_profile("crda")

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}

# Single-qubit gate of each layer kind (keyed by its CLI spelling), built
# by matrix exponentials of the rotation generators.
_AXIS_CYCLE = np.pi * (X2 + Y2 + Z2) / (3 * np.sqrt(3))
GATES = {
    "h": (X2 + Z2) / np.sqrt(2),
    "rx90": scipy.linalg.expm(-0.25j * np.pi * X2),
    "rx90dag": scipy.linalg.expm(0.25j * np.pi * X2),
    "s": scipy.linalg.expm(-0.25j * np.pi * Z2),
    "ue": scipy.linalg.expm(-1j * _AXIS_CYCLE),
    "uedag": scipy.linalg.expm(1j * _AXIS_CYCLE),
    "ue2": scipy.linalg.expm(-2j * _AXIS_CYCLE),
    "ue2dag": scipy.linalg.expm(2j * _AXIS_CYCLE),
    "id": I2,
}


def kron_pattern(pattern: str) -> np.ndarray:
    """Dense matrix of a Pauli pattern, site 0 as the least significant bit."""
    out = np.array([[1.0 + 0j]])
    for ch in reversed(pattern):
        out = np.kron(out, MATS[ch])
    return out


def layer_oracle(kind: str, sites, n: int) -> np.ndarray:
    """Dense gate layer: ``GATES[kind]`` on the 1-based ``sites``, identity elsewhere."""
    out = np.array([[1.0 + 0j]])
    for k in range(n, 0, -1):
        out = np.kron(out, GATES[kind] if k in sites else I2)
    return out


def dense_oracle(h) -> np.ndarray:
    """Dense matrix of a PauliSum via the independent pattern route."""
    dim = 1 << h.n
    out = np.zeros((dim, dim), dtype=complex)
    for t in h.terms():
        out += t.coeff * kron_pattern(t.pattern)
    return out


def sinusoid_product(weight, t: float) -> float:
    """A piece weight at one time, by ``math`` rather than the package's numpy path."""
    return math.prod(getattr(math, fn)(omega * t + phase) for fn, omega, phase in weight)


def random_pauli_sum(rng, n, nterms=6, real=False):
    from crda.pauli import PauliSum, PauliTerm

    letters = "IXYZ"
    terms = []
    for _ in range(nterms):
        pattern = "".join(letters[i] for i in rng.integers(0, 4, n))
        c = rng.standard_normal() + (0.0 if real else 1j * rng.standard_normal())
        terms.append(PauliTerm.from_pattern(pattern, c))
    return PauliSum.from_terms(terms)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_ROOT = Path(__file__).resolve().parents[1]
# One pass over the golden corpus, in the order of step argv[1] ("1" or "-1")
# with argv[2:] appended to every command: each command's [exit, stdout,
# stderr] from ``regenerate.run``, printed as JSON.
_CORPUS_PASS = """
import json, sys
from regenerate import COMMANDS, run
json.dump({c: run(c.split() + sys.argv[2:]) for c in COMMANDS[:: int(sys.argv[1])]}, sys.stdout)
"""
_CORPUS_PASS_TIMEOUT = 300.0


@pytest.fixture(scope="session")
def corpus_runs():
    """Every golden-corpus command run in two fresh interpreters: ``(a, b, seconds)``.

    What crda prints must not depend on the process it runs in. Pauli sums
    hash the bytes of their arrays, and Python salts bytes hashes per
    process. The synthesis and Dyson sweeps' ``--threads`` workers share the
    cached quadrature rules and the original and defect chains kept per
    uniform chain. The dense and Krylov norms, the sparse simulations and the
    frame integrator call BLAS or LAPACK, which may thread: the 16-site
    heis_da norm's Ritz step solves a 125x125 tridiagonal by LAPACK.

    Pass ``a`` runs the corpus in order under ``PYTHONHASHSEED=0`` and one
    OpenBLAS thread, with ``--threads 1`` appended, so every sweep runs
    serially; pass ``b`` in reverse order, which shows a value that a cache
    carries from one command to the next, under ``PYTHONHASHSEED=1`` and two
    OpenBLAS threads, with ``--threads 2`` appended. Both start at once,
    turn a RuntimeWarning into an error, as the tier-1 CI step does, and are
    killed after ``_CORPUS_PASS_TIMEOUT`` seconds. ``a`` and ``b`` map each
    command to its ``[exit, stdout, stderr]``; ``seconds`` is the wall time
    of both passes.
    """
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests" / "golden")])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
    configs = (("0", "1", "1", "1"), ("1", "2", "-1", "2"))
    started = time.perf_counter()
    passes = [
        subprocess.Popen(
            [sys.executable, "-c", _CORPUS_PASS, step, "--threads", threads],
            env={**env, "PYTHONHASHSEED": seed, "OPENBLAS_NUM_THREADS": blas},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed, blas, step, threads in configs
    ]
    try:
        outputs = [p.communicate(timeout=_CORPUS_PASS_TIMEOUT) for p in passes]
    finally:
        for p in passes:
            if p.poll() is None:
                p.kill()
                p.communicate()
    seconds = time.perf_counter() - started
    for p, (_, err) in zip(passes, outputs):
        assert p.returncode == 0, err
    a, b = (json.loads(out) for out, _ in outputs)
    return a, b, seconds


def _weights(h) -> dict:
    """The sum's weights by ``(x, z)`` key, in key order."""
    return {(t.x, t.z): t.coeff for t in h.terms()}


def reference_pair_products(a, b, anticommuting_only: bool) -> dict:
    """Summed string products ``PQ`` over all pairs, a-major, left to right."""
    from crda.pauli import _I_POW, _product_phase_exp

    if a.n != b.n:
        raise ValueError(f"site count mismatch: {a.n} != {b.n}")
    acc: dict[tuple[int, int], complex] = {}
    wb = _weights(b)
    for (x1, z1), c1 in _weights(a).items():
        for (x2, z2), c2 in wb.items():
            if anticommuting_only and not ((x1 & z2).bit_count() + (z1 & x2).bit_count()) & 1:
                continue
            key = (x1 ^ x2, z1 ^ z2)
            phase = _I_POW[_product_phase_exp(x1, z1, x2, z2)]
            acc[key] = acc.get(key, 0.0) + c1 * c2 * phase
    return acc


def reference_product(a, b):
    """``a @ b`` by the reference loop, canonicalized by ``PauliSum``."""
    from crda.pauli import PauliSum

    return PauliSum(a.n, reference_pair_products(a, b, anticommuting_only=False))


def reference_commutator(a, b):
    """``[a, b]`` by the reference loop: 2PQ per anticommuting pair, doubled after summing."""
    from crda.pauli import PauliSum

    acc = reference_pair_products(a, b, anticommuting_only=True)
    for key in acc:
        acc[key] *= 2.0
    return PauliSum(a.n, acc)


def reference_add(a, b):
    """``a + b`` key by key: a key only in ``a`` keeps its weight, others add onto 0.0."""
    from crda.pauli import PauliSum

    acc = _weights(a)
    for k, c in _weights(b).items():
        acc[k] = acc.get(k, 0.0) + c
    return PauliSum(a.n, acc)


def reference_sub(a, b):
    """``a - b`` key by key, as :func:`reference_add`."""
    from crda.pauli import PauliSum

    acc = _weights(a)
    for k, c in _weights(b).items():
        acc[k] = acc.get(k, 0.0) - c
    return PauliSum(a.n, acc)


def reference_weighted_sum(n, pieces, scalars):
    """``pieces[0] * scalars[0] + ...`` left to right from zero.

    Each piece is scaled by :func:`reference_scale` and added by
    :func:`reference_add`: the loop that ``weighted_sum`` reproduces in one pass.
    """
    from crda.pauli import PauliSum

    out = PauliSum.zero(n)
    for h, s in zip(pieces, scalars, strict=True):
        out = reference_add(out, reference_scale(h, float(s)))
    return out


def reference_neg(h):
    from crda.pauli import PauliSum

    return PauliSum(h.n, {k: -c for k, c in _weights(h).items()})


def reference_scale(h, scalar):
    """Each weight times ``complex(scalar)``, by Python's complex product."""
    from crda.pauli import PauliSum

    s = complex(scalar)
    return PauliSum(h.n, {k: c * s for k, c in _weights(h).items()})


def reference_dagger(h):
    from crda.pauli import PauliSum

    return PauliSum(h.n, {k: c.conjugate() for k, c in _weights(h).items()})


def reference_from_terms(n, terms):
    """Equal strings' weights added in list order onto 0.0."""
    from crda.pauli import PauliSum

    acc: dict[tuple[int, int], complex] = {}
    for t in terms:
        acc[(t.x, t.z)] = acc.get((t.x, t.z), 0.0) + t.coeff
    return PauliSum(n, acc)


def reference_translate_2d(h, lat, di, dj):
    """``translate_2d`` bit by bit: each string's site bits move one at a time.

    The translated strings' weights add onto 0.0 in a dict, in key order.
    """
    from crda.pauli import PauliSum

    perm = [lat.site_index(k % lat.nx + 1 + di, k // lat.nx + 1 + dj) for k in range(lat.n_sites)]
    acc: dict[tuple[int, int], complex] = {}
    for t in h.terms():
        x = z = 0
        for k in range(h.n):
            x |= ((t.x >> k) & 1) << perm[k]
            z |= ((t.z >> k) & 1) << perm[k]
        acc[(x, z)] = acc.get((x, z), 0.0) + t.coeff
    return PauliSum(h.n, acc)


def reference_trotter_checks(model, comm, j):
    """The structural entries of ``trotter_commutator`` as ``(name, value, passed)``.

    Weights, magnitudes and letters are read string by string from
    ``comm.terms()``; the DA splits also check magnitudes 2 J^2, and the 2D
    DA split one X, one Y and one Z per string.
    """
    weights = {t.weight for t in comm.terms()}
    out = [("all_terms_weight_3", 1.0 if weights <= {3} else 0.0, weights <= {3})]
    if model in ("heis_da", "xy2d_da"):
        mags = {round(abs(t.coeff), 12) for t in comm.terms()}
        ok = mags <= {round(2.0 * j * j, 12)}
        out.append(("coefficient_magnitudes_2j2", 1.0 if ok else 0.0, ok))
    if model == "xy2d_da":
        ok = all(
            sorted(c for c in t.pattern if c != "I") == ["X", "Y", "Z"] for t in comm.terms()
        )
        out.append(("one_of_each_letter_structure", 1.0 if ok else 0.0, ok))
    return out


def term_bits(h):
    """Keys in order, each with its weight's exact bytes (signed zeros included)."""
    return [((t.x, t.z), struct.pack("<dd", t.coeff.real, t.coeff.imag)) for t in h.terms()]


# letter -> (x bit, z bit), and back, written out for the letter loops below
_REFERENCE_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_REFERENCE_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def reference_from_pattern(pattern):
    """``(x, z)`` of a pattern string, one letter at a time; refuses a letter outside IXYZ."""
    x = z = 0
    for k, letter in enumerate(pattern):
        try:
            bx, bz = _REFERENCE_BITS[letter]
        except KeyError:
            raise ValueError(f"invalid Pauli letter {letter!r}") from None
        x |= bx << k
        z |= bz << k
    return x, z


def reference_from_sites(n, sites):
    """``(x, z)`` of letters on 0-based sites, one site at a time.

    Refuses a site outside ``0..n-1`` before it reads any letter, then a
    letter outside IXYZ.
    """
    for k in sites:
        if not 0 <= k < n:
            raise ValueError(f"site {k} outside range 0..{n - 1}")
    x = z = 0
    for k, letter in sites.items():
        if letter not in _REFERENCE_BITS:
            raise ValueError(f"invalid Pauli letter {letter!r}")
        bx, bz = _REFERENCE_BITS[letter]
        x |= bx << k
        z |= bz << k
    return x, z


def reference_pattern(n, x, z):
    """The letters of masks ``(x, z)``, site 0 leftmost, one site at a time."""
    return "".join(_REFERENCE_LETTERS[((x >> k) & 1, (z >> k) & 1)] for k in range(n))


def reference_qf_effective(p, drive):
    """The device chain of ``hamiltonians.build_qf_effective``, bond by bond, with its refusals.

    All-driven: per bond with J_k != 0, J_k cos(dphi) on XZ and -J_k
    sin(dphi) on XY, dphi = phi_k - phi_{k+1}. Sublattice-driven: a driven
    target is refused first; then per driven control, a target that is
    driven or detuned is refused, and -J_k cos(phi_k) on XX and -J_k
    sin(phi_k) on XY. A zero cos or sin gives no row; rows add up on 0.0
    in a dict, in bond order.
    """
    from crda.device import DriveConfig, effective_coupling
    from crda.pauli import PauliSum

    def row(coeff, *letters):
        x = z = 0
        for site, letter in letters:
            bx, bz = _REFERENCE_BITS[letter]
            x, z = x | bx << site, z | bz << site
        return x, z, coeff

    n = p.n
    rows = []
    if drive is DriveConfig.ALL:
        for k in range(n - 1):
            jk = effective_coupling(p, k + 1)
            if jk == 0.0:
                continue
            dphi = float(p.phi[k] - p.phi[k + 1])
            c, s = math.cos(dphi), math.sin(dphi)
            if c != 0.0:
                rows.append(row(jk * c, (k, "X"), (k + 1, "Z")))
            if s != 0.0:
                rows.append(row(-jk * s, (k, "X"), (k + 1, "Y")))
    else:
        control_parity = 1 if drive is DriveConfig.ODD else 0
        for k in range(n):
            site = k + 1
            if site % 2 != control_parity % 2 and p.is_driven(k):
                raise ValueError(f"qubit {site} is driven but assigned a target role")
        for k in range(n - 1):
            site = k + 1
            if site % 2 != control_parity % 2:
                continue
            if not p.is_driven(k):
                continue
            if p.delta[k + 1] != 0.0 or p.Omega[k + 1] != 0.0:
                raise ValueError(f"target qubit {site + 1} must be undriven with zero detuning")
            jk = -effective_coupling(p, k + 1)
            ph = float(p.phi[k])
            c, s = math.cos(ph), math.sin(ph)
            if c != 0.0:
                rows.append(row(jk * c, (k, "X"), (k + 1, "X")))
            if s != 0.0:
                rows.append(row(jk * s, (k, "X"), (k + 1, "Y")))
    acc: dict[tuple[int, int], complex] = {}
    for x, z, c in rows:
        acc[(x, z)] = acc.get((x, z), 0.0) + c
    return PauliSum(n, acc)


# Drive-phase-sensitive chains J * sum x_k (a cos(phi) + s sin(phi) y)_{k+1}:
# kind -> (letter a, sign s, on odd bonds, on even bonds).
REFERENCE_PHASE_CHAINS = {
    "control": ("Z", -1.0, True, True),
    "qf": ("Z", -1.0, True, True),
    "qf_odd": ("X", 1.0, True, False),
    "qf_even": ("X", 1.0, False, True),
}


def reference_canonical(kind, lat, j=1.0, phi=0.0):
    """A canonical family term by term: one ``PauliTerm.from_sites`` per bond entry.

    Phase-free kinds take their entries from ``hamiltonians._BONDS``; the
    phase chains build theirs from :data:`REFERENCE_PHASE_CHAINS`. The terms
    add up by :func:`reference_from_terms`, in bond order.
    """
    from crda.hamiltonians import _BONDS
    from crda.pauli import PauliTerm

    if kind.value in REFERENCE_PHASE_CHAINS:
        letter, sign, on_odd, on_even = REFERENCE_PHASE_CHAINS[kind.value]
        weighted = ((letter, math.cos(phi)), ("Y", sign * math.sin(phi)))
        spec = tuple(("X", b, w) for b, w in weighted if abs(w) > 0)
        dim, odd, even = 1, spec if on_odd else (), spec if on_even else ()
    else:
        dim, odd, even = _BONDS[kind]
    if lat.dim != dim:
        raise ValueError(f"{kind.value} needs a {dim}D lattice")
    if lat.periodic and odd != even:
        lat.require_even_extents()
    terms = [
        PauliTerm.from_sites(lat.n_sites, {s: l1, t: l2}, j * w)
        for s, t, is_odd in lat.bonds()
        for l1, l2, w in (odd if is_odd else even)
    ]
    return reference_from_terms(lat.n_sites, terms)


def reference_toggle(h, layer):
    """U† h U string by string: each letter class of the layer's sites is one mask."""
    from crda.frames import _IMAGES
    from crda.pauli import PauliSum

    images = _IMAGES[layer.kind]
    on = sum(1 << k for k in layer.sites(h.n))
    acc: dict[tuple[int, int], complex] = {}
    for (x, z), c in _weights(h).items():
        nx, nz, odd = x & ~on, z & ~on, 0
        for m, (ix, iz, neg) in zip((x & ~z & on, x & z & on, ~x & z & on), images):
            if ix:
                nx |= m
            if iz:
                nz |= m
            if neg:
                odd ^= m.bit_count() & 1
        key = (nx, nz)
        acc[key] = acc.get(key, 0.0) + (-c if odd else c)
    return PauliSum(h.n, acc)


def reference_csr(h) -> scipy.sparse.csr_matrix:
    """Complex CSR matrix of a PauliSum, one full-height X-mask column at a time.

    Row ``i`` holds one entry per distinct X mask ``x``, in sorted order:
    column ``i ^ x`` and the sum over the strings sharing ``x``, in sorted z
    order and starting from 0, of ``c * (-i)^|x&z| * (-1)^|i&z|``. Exact
    zeros are stored too; ``PauliSum._build_csr`` leaves them out.
    """
    from crda.pauli import _I_POW, _index_dtype

    n, dim = h.n, 1 << h.n
    weights = _weights(h)
    masks = len({x for x, _ in weights})
    itype = _index_dtype(masks << n)
    idx = np.arange(dim, dtype=itype)
    data = np.empty((dim, masks), dtype=complex)
    indices = np.empty((dim, masks), dtype=itype)
    for k, (x, group) in enumerate(itertools.groupby(weights.items(), key=lambda kv: kv[0][0])):
        data[:, k] = sum(
            c * _I_POW[-(x & z).bit_count() % 4] * (1.0 - 2.0 * (np.bitwise_count(idx & z) & 1))
            for (_, z), c in group
        )
        np.bitwise_xor(idx, x, out=indices[:, k])
    indptr = masks * np.arange(dim + 1, dtype=itype)
    return scipy.sparse.csr_matrix(
        (data.reshape(-1), indices.reshape(-1), indptr), shape=(dim, dim)
    )


def reference_chebyshev(h, tau, psi):
    """exp(-i h tau) psi by the complex Chebyshev recurrence on :func:`reference_csr`.

    Terms up to the package's ``_chebyshev_coefficients(R tau)``, R = sum |c|;
    the first recurrence vector is divided by R in complex arithmetic.
    """
    from crda.compiler import _chebyshev_coefficients

    m = reference_csr(h)
    r = sum(abs(c) for c in h._c.tolist())
    coef = _chebyshev_coefficients(r * tau)
    acc = coef[0] * psi
    if coef.size == 1:
        return acc
    prev, cur = psi, m @ psi
    cur /= r
    acc += coef[1] * cur
    for c in coef[2:]:
        nxt = m @ cur
        nxt *= 2.0 / r
        nxt -= prev
        prev, cur = cur, nxt
        acc += c * cur
    return acc


# Unit-cell tables of the 2D decompositions, as the package listed them
# before it walked the checkerboard: offsets are relative to the cell anchor
# (2i - 1, 2j - 1), and each entry is (letter, first site, second site).
_H_I_CELL = (
    ("X", (0, 0), (1, 0)),
    ("Y", (1, 0), (2, 0)),
    ("Y", (0, 1), (1, 1)),
    ("X", (1, 1), (2, 1)),
    ("X", (0, 0), (0, 1)),
    ("Y", (1, 0), (1, 1)),
    ("Y", (0, 1), (0, 2)),
    ("X", (1, 1), (1, 2)),
)
_H_II_CELL = tuple(({"X": "Y", "Y": "X"}[letter], a, b) for letter, a, b in _H_I_CELL)
# z-stars on the (odd, odd) and (even, even) sites, x-stars on the others
_H_2D_ODD_CELL = (
    ("Z", (0, 0), (0, 1)),
    ("Z", (0, 0), (1, 0)),
    ("Z", (1, 1), (1, 2)),
    ("Z", (1, 1), (2, 1)),
    ("X", (0, 1), (0, 2)),
    ("X", (0, 1), (1, 1)),
    ("X", (1, 0), (1, 1)),
    ("X", (1, 0), (2, 0)),
)
REFERENCE_CELLS = {
    "h_2d_odd": _H_2D_ODD_CELL,
    "h_2d_even": tuple(({"Z": "X", "X": "Z"}[letter], a, b) for letter, a, b in _H_2D_ODD_CELL),
    "h_i": _H_I_CELL,
    "h_ii": _H_II_CELL,
    "h_xy_2d": _H_I_CELL + _H_II_CELL,
}


def reference_tiling(kind: str, lat, j: float = 1.0):
    """A 2D family as its unit cell tiled over the anchors (2i - 1, 2j - 1).

    Periodic lattices need even extents, for the cells to tile them; on
    open ones, the cells cover every site and drop the bonds that leave
    the lattice.
    """
    from crda.pauli import PauliTerm

    if lat.periodic:
        if lat.nx % 2 or lat.ny % 2:
            raise ValueError("periodic unit cells need even extents")
        anchors = itertools.product(range(1, lat.ny // 2 + 1), range(1, lat.nx // 2 + 1))
    else:
        anchors = itertools.product(range(1, (lat.ny + 1) // 2 + 1), range(1, (lat.nx + 1) // 2 + 1))
    terms = []
    for cj, ci in anchors:
        for letter, (d1i, d1j), (d2i, d2j) in REFERENCE_CELLS[kind]:
            ends = ((2 * ci - 1 + d1i, 2 * cj - 1 + d1j), (2 * ci - 1 + d2i, 2 * cj - 1 + d2j))
            if not lat.periodic and any(i > lat.nx or jj > lat.ny for i, jj in ends):
                continue
            sites = {lat.site_index(*end): letter for end in ends}
            terms.append(PauliTerm.from_sites(lat.n_sites, sites, j))
    return reference_from_terms(lat.n_sites, terms)


def reference_fuse(schedule):
    """The peephole fusion as first written: a ``changed`` flag repeats passes.

    Each pass walks the steps left to right and, at each gate-layer pair,
    cancels an inverse pair, composes a same-support pair into a catalogued
    kind, or merges equal kinds on disjoint supports, then skips past both.
    The package's pair-rule fusion must give the same steps.
    """
    from crda.compiler import AnalogSegment, Schedule
    from crda.frames import GateLayer, GateLayerKind, compose_kinds

    n = schedule.n
    steps = [
        s
        for s in schedule.steps
        if not (isinstance(s, GateLayer) and s.kind is GateLayerKind.IDENTITY)
    ]

    def support_of(layer: GateLayer) -> frozenset[int]:
        return frozenset(layer.sites(n))

    def layer_for(kind: GateLayerKind, sites: frozenset[int]) -> GateLayer:
        for name in ("all", "even", "odd"):
            if sites == support_of(layer := GateLayer(kind, name)):
                return layer
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
