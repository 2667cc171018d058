"""Shared dense oracles for the test suite.

The oracle path builds matrices straight from pattern strings with its
own Kronecker loop, independent of the package's mask-based encoding,
so dense comparisons actually cross-check the two representations.
"""

import numpy as np
import pytest
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


def kron_pattern(pattern: str) -> np.ndarray:
    """Dense matrix of a Pauli pattern, site 0 as the least significant bit."""
    out = np.array([[1.0 + 0j]])
    for ch in reversed(pattern):
        out = np.kron(out, MATS[ch])
    return out


def dense_oracle(h) -> np.ndarray:
    """Dense matrix of a PauliSum via the independent pattern route."""
    dim = 1 << h.n
    out = np.zeros((dim, dim), dtype=complex)
    for t in h.terms():
        out += t.coeff * kron_pattern(t.pattern)
    return out


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
