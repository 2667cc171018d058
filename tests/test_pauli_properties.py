"""Property tests of the numerical backends against the dense oracle.

Generated sums draw their X masks from a small pool, so several strings
share one X mask (one entry per row of the CSR matrix); the pool always offers
``x = 0``, and an identity term is optional.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_oracle
from crda.pauli import PauliSum, PauliTerm, commutator, spectral_norm

_COEFFS = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def pauli_sums(draw, n=None, real=False, min_n=1):
    n = draw(st.integers(min_n, 6)) if n is None else n
    masks = st.integers(0, (1 << n) - 1)
    x_pool = [0] + draw(st.lists(masks, min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        c = draw(_COEFFS) + (0.0 if real else 1j * draw(_COEFFS))
        terms.append(PauliTerm(n, draw(st.sampled_from(x_pool)), draw(masks), c))
    if draw(st.booleans()):
        terms.append(PauliTerm(n, 0, 0, draw(_COEFFS)))
    return PauliSum.from_terms(terms)


@st.composite
def commutators(draw):
    n = draw(st.integers(2, 6))
    return commutator(draw(pauli_sums(n=n, real=True)), draw(pauli_sums(n=n, real=True)))


def _state(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


@given(pauli_sums(), st.integers(0, 2**32 - 1))
def test_apply_matches_oracle(h, seed):
    v = _state(seed, h.n)
    assert np.allclose(h.apply(v), dense_oracle(h) @ v, rtol=0.0, atol=1e-12 * (1 + len(h)))


@given(pauli_sums())
def test_dense_and_sparse_match_oracle(h):
    oracle = dense_oracle(h)
    assert np.allclose(h.to_dense(), oracle, rtol=0.0, atol=1e-13)
    assert np.allclose(h.to_sparse().toarray(), oracle, rtol=0.0, atol=1e-13)


def _assert_norms_agree(h):
    oracle = float(np.linalg.norm(dense_oracle(h), 2))
    assert abs(spectral_norm(h) - oracle) <= 1e-10 * max(oracle, 1.0)


@given(commutators())
def test_commutator_norm_matrix_free_matches_dense(c):
    # commutators of Hermitian sums are anti-Hermitian: the i*C proxy
    _assert_norms_agree(c)


@given(pauli_sums(min_n=2))
def test_complex_sum_norm_matrix_free_matches_dense(h):
    # general complex weights: the h^dagger h proxy unless h is (anti-)Hermitian
    _assert_norms_agree(h)


@st.composite
def sum_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(pauli_sums(n=n)), draw(pauli_sums(n=n))


@given(sum_pairs())
def test_product_matches_oracle(pair):
    a, b = pair
    want = dense_oracle(a) @ dense_oracle(b)
    assert np.allclose(dense_oracle(a @ b), want, rtol=0.0, atol=1e-12 * (1 + len(a) * len(b)))


@given(sum_pairs())
def test_commutator_matches_oracle(pair):
    a, b = pair
    da, db = dense_oracle(a), dense_oracle(b)
    want = da @ db - db @ da
    assert np.allclose(dense_oracle(commutator(a, b)), want, rtol=0.0, atol=1e-12 * (1 + len(a) * len(b)))
