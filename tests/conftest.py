"""Shared dense oracles and reference loops for the test suite.

The oracle path builds matrices straight from pattern strings with its
own Kronecker loop, independent of the package's mask-based encoding,
so dense comparisons actually cross-check the two representations.
The pair-product reference is the plain Python loop over string pairs
that the package's vectorized kernel must reproduce bit for bit, and the
CSR reference fills the matrix one X-mask column at a time, as the
package's row-block build must reproduce byte for byte.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import settings

# Property tests replay the same examples on every run: no random seed, no
# example database, and no per-example deadline (a loaded host is slow).
settings.register_profile("crda", derandomize=True, database=None, deadline=None)
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


def reference_pair_products(a, b, anticommuting_only: bool) -> dict:
    """Summed string products ``PQ`` over all pairs, a-major, left to right."""
    from crda.pauli import _I_POW, _product_phase_exp

    if a.n != b.n:
        raise ValueError(f"site count mismatch: {a.n} != {b.n}")
    acc: dict[tuple[int, int], complex] = {}
    for (x1, z1), c1 in a._terms.items():
        for (x2, z2), c2 in b._terms.items():
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


def reference_csr(h) -> scipy.sparse.csr_matrix:
    """Complex CSR matrix of a PauliSum, one full-height X-mask column at a time.

    Row ``i`` holds one entry per distinct X mask ``x``, in sorted order:
    column ``i ^ x`` and the sum over the strings sharing ``x``, in sorted z
    order and starting from 0, of ``c * (-i)^|x&z| * (-1)^|i&z|``.
    """
    from crda.pauli import _I_POW, _index_dtype

    n, dim = h.n, 1 << h.n
    masks = len({x for x, _ in h._terms})
    itype = _index_dtype(masks << n)
    idx = np.arange(dim, dtype=itype)
    data = np.empty((dim, masks), dtype=complex)
    indices = np.empty((dim, masks), dtype=itype)
    for k, (x, group) in enumerate(itertools.groupby(h._terms.items(), key=lambda kv: kv[0][0])):
        data[:, k] = sum(
            c * _I_POW[-(x & z).bit_count() % 4] * (1.0 - 2.0 * (np.bitwise_count(idx & z) & 1))
            for (_, z), c in group
        )
        np.bitwise_xor(idx, x, out=indices[:, k])
    indptr = masks * np.arange(dim + 1, dtype=itype)
    return scipy.sparse.csr_matrix(
        (data.reshape(-1), indices.reshape(-1), indptr), shape=(dim, dim)
    )
