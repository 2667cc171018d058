"""Property tests of the numerical backends against the dense oracle, of
the vectorized pair kernel against the reference loop, and of the
row-block CSR build against the column-by-column reference build.

Generated sums draw their X masks from a small pool, so several strings
share one X mask (one entry per row of the CSR matrix); the pool always offers
``x = 0``, and an identity term is optional.
"""

import operator
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_oracle, reference_commutator, reference_csr, reference_product
from crda import pauli
from crda.pauli import (
    _I_POW,
    PauliSum,
    PauliTerm,
    _clash_parity,
    _mask_ints,
    _mask_words,
    _popcount,
    _product_phase_exp,
    commutator,
    spectral_norm,
)

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


# ----------------------------------------------------------------------
# the vectorized pair kernel against the reference loop, bit for bit
# ----------------------------------------------------------------------

# Weights that make pair products collide and cancel, exactly or to below
# PRUNE_TOL, carry signed zeros, or overflow to inf.
_EDGE_COEFFS = st.sampled_from([1.0, -1.0, 1.0 + 4e-15, -1.0 + 3e-15, 0.5, 0.0, -0.0, 1e154, -1e300])


def _sparse_masks(n):
    """Masks with a few set bits, often on the word boundaries."""
    edges = sorted({0, 62, 63, 64, 65, n - 1} & set(range(n)))
    bits = st.integers(0, n - 1) | st.sampled_from(edges)
    return st.sets(bits, max_size=3).map(lambda ks: sum(1 << k for k in ks))


@st.composite
def kernel_pairs(draw):
    """Two sums of up to 10 strings each (possibly none) on 1-6, 63-65 or 130 sites."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 63, 64, 65, 130]))
    masks = st.integers(0, (1 << n) - 1) if n <= 6 else _sparse_masks(n)
    weights = _COEFFS | _EDGE_COEFFS

    def one_sum():
        size = draw(st.integers(0, 10))
        keys = [(draw(masks), draw(masks)) for _ in range(size)]
        return PauliSum(n, {k: complex(draw(weights), draw(weights)) for k in keys})

    return one_sum(), one_sum()


def _bits(h):
    """Keys in order, each with its weight's exact bytes (signed zeros included)."""
    return [(key, struct.pack("<dd", c.real, c.imag)) for key, c in h._terms.items()]


def _assert_matches_reference(op, reference, a, b):
    try:
        want = reference(a, b)
    except ValueError:  # a non-finite coefficient
        with pytest.raises(ValueError, match="finite"):
            op(a, b)
        return
    assert _bits(op(a, b)) == _bits(want)


@given(kernel_pairs())
def test_product_equals_reference_loop(pair):
    _assert_matches_reference(operator.matmul, reference_product, *pair)


@given(kernel_pairs())
def test_commutator_equals_reference_loop(pair):
    _assert_matches_reference(commutator, reference_commutator, *pair)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_many_pairs_per_string_sum_left_to_right(n):
    # 4^n strings with random weights: every product string collects 4^n
    # pair terms, whose rounded sum depends on the order they are added in.
    rng = np.random.default_rng(n)
    full = [(x, z) for x in range(1 << n) for z in range(1 << n)]
    a, b = (PauliSum(n, {k: complex(*rng.standard_normal(2)) for k in full}) for _ in range(2))
    assert _bits(a @ b) == _bits(reference_product(a, b))
    assert _bits(commutator(a, b)) == _bits(reference_commutator(a, b))


def test_cancellation_below_prune_tol_is_dropped():
    a = PauliSum.from_pattern("XI") + PauliSum.from_pattern("ZI")
    b = PauliSum.from_pattern("XI") + PauliSum.from_pattern("ZI", 1.0 + 1e-15)
    # XZ = -iY and ZX = iY cancel to 1e-15: the Y string is pruned.
    assert _bits(a @ b) == _bits(reference_product(a, b))
    assert (a @ b).coefficient("YI") == 0.0 and len(a @ b) == 1


@pytest.mark.parametrize(
    "op, a, b",
    [
        # each pair product is inf
        (operator.matmul, {(1, 0): 1e200}, {(1, 0): 1e200}),
        # each pair product is finite, their sum is not
        (operator.matmul, {(0, 0): 1e154, (1, 0): 1e154}, {(0, 0): 1.5e154, (1, 0): 1.5e154}),
        # the summed commutator is finite until it is doubled
        (commutator, {(1, 0): 1e154}, {(0, 1): 1e154}),
    ],
)
def test_overflow_to_inf_raises(op, a, b):
    a, b = PauliSum(1, a), PauliSum(1, b)
    reference = reference_product if op is operator.matmul else reference_commutator
    for fn in (op, reference):
        with pytest.raises(ValueError, match="finite"):
            fn(a, b)


@pytest.mark.parametrize("op", [operator.matmul, commutator])
def test_mismatched_site_counts_raise(op):
    with pytest.raises(ValueError, match="site count mismatch"):
        op(PauliSum.from_pattern("XY"), PauliSum.from_pattern("XYZ"))


def test_array_phase_rule_matches_scalar_rule():
    rng = np.random.default_rng(130)
    n, w = 130, 3
    masks = [[int.from_bytes(rng.bytes(17), "little") >> 6 for _ in range(500)] for _ in range(4)]
    assert max(map(max, masks)).bit_length() == n
    words = [_mask_words(m, w) for m in masks]
    assert _mask_ints(words[0]) == masks[0]
    exps = _product_phase_exp(*words, popcount=_popcount)
    assert exps.tolist() == [_product_phase_exp(*q) for q in zip(*masks)]
    parity = _clash_parity(*words, popcount=_popcount)
    assert parity.tolist() == [_clash_parity(*q) for q in zip(*masks)]


# ----------------------------------------------------------------------
# the row-block CSR build against the column-by-column reference
# ----------------------------------------------------------------------


@st.composite
def csr_sums(draw, max_n=14):
    """Sums on 1 to ``max_n`` sites over a pool of one to three X masks.

    Weights carry signed zeros and cancel; in about half the sums every
    matrix weight ``c (-i)^|x&z|`` is real, and the others may have a few
    such weights real.
    """
    n = draw(st.integers(1, max_n))
    masks = st.integers(0, (1 << n) - 1)
    x_pool = draw(st.lists(masks, min_size=1, max_size=3))
    parts = _COEFFS | _EDGE_COEFFS
    real = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        x, z = draw(st.sampled_from(x_pool)), draw(masks)
        if real:
            c = draw(parts) * _I_POW[(x & z).bit_count() % 4]
        else:
            c = complex(draw(parts), draw(parts))
        terms.append(PauliTerm(n, x, z, c))
    return PauliSum.from_terms(terms)


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def _block_builds(h, dtype=complex):
    """``h._build_csr(dtype)`` with blocks of one, of a few and of the default entries."""
    for entries in (1, 24, pauli._BLOCK_ENTRIES):
        with mock.patch.object(pauli, "_BLOCK_ENTRIES", entries):
            yield h._build_csr(dtype)


@given(csr_sums())
def test_row_block_build_equals_reference(h):
    want = reference_csr(h)
    for got in _block_builds(h):
        _assert_same_csr(got, want)
    real = h._csr_dtype() is float
    assert real == (not want.data.imag.any())
    if real:
        real_part = want.copy()
        real_part.data = want.data.real.copy()
        for got in _block_builds(h, float):
            _assert_same_csr(got, real_part)


@pytest.mark.parametrize("n", [1, 2, 7, 13, 14])
def test_row_block_build_single_term_and_single_mask(n):
    rng = np.random.default_rng(n)
    x, *zs = (int(m) for m in rng.integers(0, 1 << n, 5))
    one_term = PauliSum(n, {(x, zs[0]): 0.3 - 1.7j})
    one_mask = PauliSum(n, {(x, z): complex(*rng.standard_normal(2)) for z in zs})
    for h in (one_term, one_mask):
        for got in _block_builds(h):
            _assert_same_csr(got, reference_csr(h))


@given(csr_sums(max_n=6))
def test_real_dtype_exactly_when_the_matrix_is_real(h):
    assert (h._csr_dtype() is float) == (not dense_oracle(h).imag.any())
