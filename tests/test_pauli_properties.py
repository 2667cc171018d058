"""Property tests of the numerical backends against the dense oracle, of
the vectorized pair kernel and the array algebra against the reference
loops, of the row-block CSR build against the column-by-column
reference build, and of the letter codec, the JSON rows and the repr
against the letter-by-letter reference loops.

Generated sums draw their X masks from a small pool, so several strings
share one X mask (at most one entry per row of the CSR matrix); the pool always offers
``x = 0``, and an identity term is optional.
"""

import json
import operator
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    dense_oracle,
    reference_add,
    reference_commutator,
    reference_csr,
    reference_dagger,
    reference_from_pattern,
    reference_from_sites,
    reference_from_terms,
    reference_neg,
    reference_pattern,
    reference_product,
    reference_scale,
    reference_sub,
    reference_toggle,
    term_bits,
)
from crda import pauli
from crda.frames import GateLayer, GateLayerKind, toggle
from crda.pauli import (
    _I_POW,
    PauliSum,
    PauliTerm,
    _clash_parity,
    _grouped,
    _mask_ints,
    _mask_words,
    _masks,
    _pattern,
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


def _assert_matches_reference(op, reference, a, b):
    try:
        want = reference(a, b)
    except ValueError:  # a non-finite coefficient
        with pytest.raises(ValueError, match="finite"):
            op(a, b)
        return
    assert term_bits(op(a, b)) == term_bits(want)


@given(kernel_pairs())
def test_product_equals_reference_loop(pair):
    _assert_matches_reference(operator.matmul, reference_product, *pair)


@given(kernel_pairs())
def test_commutator_equals_reference_loop(pair):
    _assert_matches_reference(commutator, reference_commutator, *pair)


@given(kernel_pairs())
def test_sum_and_difference_equal_reference_loop(pair):
    _assert_matches_reference(operator.add, reference_add, *pair)
    _assert_matches_reference(operator.sub, reference_sub, *pair)


@given(kernel_pairs(), _COEFFS | _EDGE_COEFFS, _COEFFS | _EDGE_COEFFS)
def test_negation_scaling_and_adjoint_equal_reference(pair, re, im):
    s = complex(re, im)
    for h in pair:
        assert term_bits(-h) == term_bits(reference_neg(h))
        assert term_bits(h.dagger()) == term_bits(reference_dagger(h))
        for scalar in (s, s.real):
            _assert_matches_reference(operator.mul, reference_scale, h, scalar)
            _assert_matches_reference(lambda h, s: s * h, reference_scale, h, scalar)


_LAYERS = st.builds(
    GateLayer,
    st.sampled_from(list(GateLayerKind)),
    st.sampled_from(["all", "even", "odd", (1,)]),
)


@given(kernel_pairs(), _LAYERS)
def test_toggle_equals_reference_loop(pair, layer):
    for h in pair:
        assert term_bits(toggle(h, layer)) == term_bits(reference_toggle(h, layer))


@given(kernel_pairs())
def test_term_list_sum_equals_reference_loop(pair):
    # both sums' terms in one list, so equal strings collide and add up
    terms = pair[0].terms() + pair[1].terms() + pair[0].terms()[:3]
    if terms:
        _assert_matches_reference(
            lambda n, ts: PauliSum.from_terms(ts), reference_from_terms, terms[0].n, terms
        )


@given(kernel_pairs())
def test_equal_sums_hash_equal(pair):
    a, b = pair
    # one mapping inserted in two orders
    weights = {(t.x, t.z): t.coeff for t in a.terms()}
    shuffled = PauliSum(a.n, dict(reversed(list(weights.items()))))
    assert shuffled == a and hash(shuffled) == hash(a)
    # a key in one sum only keeps its weight in a + b but becomes 0.0 + c in
    # b + a: the two differ at most in -0.0 against 0.0
    try:
        ab, ba = a + b, b + a
    except ValueError:  # a non-finite coefficient
        return
    assert ab == ba and hash(ab) == hash(ba)


def test_signed_zero_weights_equal_and_hash_equal():
    plus = PauliSum(2, {(1, 0): complex(1.0, 0.0), (0, 3): complex(0.0, 2.0)})
    minus = PauliSum(2, {(1, 0): complex(1.0, -0.0), (0, 3): complex(-0.0, 2.0)})
    assert term_bits(plus) != term_bits(minus)
    assert plus == minus and hash(plus) == hash(minus)
    assert len({plus, minus}) == 1
    assert plus != PauliSum(2, {(1, 0): 1.0})


_WORD = st.integers(0, 2**64 - 1)
_NARROW_WORD = st.sampled_from([0, 1, 2**63, 2**64 - 1])


@st.composite
def grouping_keys(draw):
    """``(x, z)`` words of 0-40 keys, 1-3 words each, every word column wide or narrow.

    A wide column almost never ties and a narrow one mostly does, so the
    most significant x word is distinct or tied independently of the lower
    words; whole keys are then optionally repeated.
    """
    w, m = draw(st.integers(1, 3)), draw(st.integers(0, 40))
    column = st.sampled_from([_WORD, _NARROW_WORD])
    columns = [draw(st.lists(draw(column), min_size=m, max_size=m)) for _ in range(2 * w)]
    keys = np.array(columns, dtype=np.uint64).reshape(2 * w, m).T
    if m and draw(st.booleans()):
        keys = keys[draw(st.lists(st.integers(0, m - 1), max_size=40))]
    return np.ascontiguousarray(keys[:, :w]), np.ascontiguousarray(keys[:, w:])


def _assert_grouped_is_stable_sort(x, z):
    keys = list(zip(_mask_ints(x), _mask_ints(z)))
    want = sorted(range(len(keys)), key=keys.__getitem__)  # stable, as np.lexsort
    first = [k == 0 or keys[want[k]] != keys[want[k - 1]] for k in range(len(want))]
    order, got_first, group = _grouped(x, z)
    assert order.tolist() == want
    assert got_first.dtype == bool and got_first.tolist() == first
    assert group.dtype == np.intp and group.tolist() == (np.cumsum(first, dtype=int) - 1).tolist()


@given(grouping_keys())
def test_grouping_equals_stable_sort(keys):
    _assert_grouped_is_stable_sort(*keys)


_TOP = 2**64 - 1


@pytest.mark.parametrize(
    "xs, zs",
    [
        ([], []),
        ([[5]], [[7]]),
        # distinct most significant words: the single sort
        ([[1, 3], [2, 1], [0, 2]], [[0, 0], [9, 9], [1, 1]]),
        # ties only in the most significant word
        ([[2, _TOP], [1, _TOP], [0, _TOP]], [[0, 0], [0, 0], [0, 0]]),
        # ties only in lower words, and in z
        ([[7, 2], [7, 1], [7, 0]], [[3, 3], [3, 3], [3, 3]]),
        # duplicate keys keep their input order
        ([[4], [1], [4], [1], [4]], [[2], [0], [2], [0], [2]]),
        # equal x, z decides
        ([[0, 0, 1]] * 3, [[0, 0, 2], [0, 0, 1], [1, 0, 0]]),
    ],
)
def test_grouping_edge_cases(xs, zs):
    w = len(xs[0]) if xs else 1
    x = np.array(xs, dtype=np.uint64).reshape(len(xs), w)
    z = np.array(zs, dtype=np.uint64).reshape(len(zs), w)
    _assert_grouped_is_stable_sort(x, z)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_many_pairs_per_string_sum_left_to_right(n):
    # 4^n strings with random weights: every product string collects 4^n
    # pair terms, whose rounded sum depends on the order they are added in.
    rng = np.random.default_rng(n)
    full = [(x, z) for x in range(1 << n) for z in range(1 << n)]
    a, b = (PauliSum(n, {k: complex(*rng.standard_normal(2)) for k in full}) for _ in range(2))
    assert term_bits(a @ b) == term_bits(reference_product(a, b))
    assert term_bits(commutator(a, b)) == term_bits(reference_commutator(a, b))


def test_cancellation_below_prune_tol_is_dropped():
    a = PauliSum.from_pattern("XI") + PauliSum.from_pattern("ZI")
    b = PauliSum.from_pattern("XI") + PauliSum.from_pattern("ZI", 1.0 + 1e-15)
    # XZ = -iY and ZX = iY cancel to 1e-15: the Y string is pruned.
    assert term_bits(a @ b) == term_bits(reference_product(a, b))
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
def csr_sums(draw, max_n=14, diagonal=False):
    """Sums on 1 to ``max_n`` sites over a pool of one to three X masks, or of Z strings alone.

    Weights carry signed zeros and cancel; in about half the sums every
    matrix weight ``c (-i)^|x&z|`` is real, and the others may have a few
    such weights real. About half the strings come with a partner on the
    same X mask whose matrix weight is the same up to sign: the pair sums
    to an exact zero in half the rows.
    """
    n = draw(st.integers(1, max_n))
    masks = st.integers(0, (1 << n) - 1)
    x_pool = [0] if diagonal else draw(st.lists(masks, min_size=1, max_size=3))
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
        if draw(st.booleans()):
            z2, sign = draw(masks), draw(st.sampled_from([1.0, -1.0]))
            phase = _I_POW[((x & z2).bit_count() - (x & z).bit_count()) % 4]
            terms.append(PauliTerm(n, x, z2, sign * c * phase))
    return PauliSum.from_terms(terms)


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def _without_zeros(m):
    """``m`` with its exactly zero entries dropped by a plain mask; the rest in order."""
    keep = m.data != 0
    before = np.concatenate(([0], np.cumsum(keep)))  # kept entries ahead of each position
    return scipy.sparse.csr_matrix(
        (m.data[keep], m.indices[keep], before[m.indptr].astype(m.indptr.dtype)), shape=m.shape
    )


def _assert_same_products(got, full):
    """Byte-equal matvecs by ``m`` and ``m.T``, and up to 2^8 rows a byte-equal
    dense matrix, as the matrix with its zeros stored gives."""
    if got.shape[0] <= 1 << 8:
        assert got.toarray().tobytes() == full.toarray().tobytes()
    rng = np.random.default_rng(got.shape[0])
    real = rng.standard_normal(got.shape[0])
    for v in (real, real + 1j * rng.standard_normal(got.shape[0])):
        assert (got @ v).tobytes() == (full @ v).tobytes()
        assert (got.T @ v).tobytes() == (full.T @ v).tobytes()


def _block_builds(h, dtype=complex):
    """``h._build_csr(dtype)`` with blocks of one, of a few and of the default entries."""
    for entries in (1, 24, pauli._BLOCK_ENTRIES):
        with mock.patch.object(pauli, "_BLOCK_ENTRIES", entries):
            yield h._build_csr(dtype)


@given(csr_sums())
def test_row_block_build_equals_reference(h):
    # the reference stores every X mask; the build leaves out its exact zeros
    full = reference_csr(h)
    want = _without_zeros(full)
    for got in _block_builds(h):
        _assert_same_csr(got, want)
        assert got.nnz == np.count_nonzero(full.data)
        _assert_same_products(got, full)
    real = h._csr_dtype() is float
    assert real == (not full.data.imag.any())
    if real:
        real_full = full.copy()
        real_full.data = full.data.real.copy()
        for got in _block_builds(h, float):
            _assert_same_csr(got, _without_zeros(real_full))
            assert got.nnz == np.count_nonzero(real_full.data)
            _assert_same_products(got, real_full)


@pytest.mark.parametrize("n", [1, 2, 7, 13, 14])
def test_row_block_build_single_term_and_single_mask(n):
    rng = np.random.default_rng(n)
    x, *zs = (int(m) for m in rng.integers(0, 1 << n, 5))
    one_term = PauliSum(n, {(x, zs[0]): 0.3 - 1.7j})
    one_mask = PauliSum(n, {(x, z): complex(*rng.standard_normal(2)) for z in zs})
    for h in (one_term, one_mask):
        for got in _block_builds(h):
            _assert_same_csr(got, reference_csr(h))


@given(csr_sums(max_n=10) | csr_sums(max_n=10, diagonal=True), st.integers(0, 2**32 - 1))
def test_apply_and_expectation_equal_reference_matvec(h, seed):
    # apply keeps a real matrix where every weight is real, and only the
    # diagonal of Z strings; both give the complex matvec's bits
    v = _state(seed, h.n)
    rng = np.random.default_rng(seed)
    v.real[rng.random(len(v)) < 0.3] = 0.0
    v.imag[rng.random(len(v)) < 0.3] = -0.0
    want = reference_csr(h) @ v
    assert h.apply(v).tobytes() == want.tobytes()
    expectation = complex(np.sum(np.conj(v) * want))
    assert np.array(h.expectation(v)).tobytes() == np.array(expectation).tobytes()
    assert h._matrix.dtype == np.dtype(h._csr_dtype())
    assert h._matrix.format == ("csr" if h._x.any() else "dia")


@given(csr_sums(max_n=6))
def test_real_dtype_exactly_when_the_matrix_is_real(h):
    assert (h._csr_dtype() is float) == (not dense_oracle(h).imag.any())


# ----------------------------------------------------------------------
# the letter codec against the letter-by-letter reference loops
# ----------------------------------------------------------------------

_LETTERS = "IXYZ"
# site counts: none, a few, and 63 to 70 (one and two mask words)
_SIZES = st.integers(0, 8) | st.integers(63, 70)


def _strings(n):
    return st.text(_LETTERS, min_size=n, max_size=n)


def letter_strings():
    return _SIZES.flatmap(_strings)


@given(letter_strings(), st.data())
def test_letter_codec_equals_reference_loops(pattern, data):
    n = len(pattern)
    x, z = reference_from_pattern(pattern)
    assert _masks(enumerate(pattern)) == (x, z)
    assert _pattern(n, x, z) == reference_pattern(n, x, z) == pattern
    if n == 0:
        for build in (lambda: PauliTerm.from_pattern(pattern), lambda: PauliTerm.from_sites(0, {})):
            with pytest.raises(ValueError, match="need at least one site"):
                build()
        return
    t = PauliTerm.from_pattern(pattern, 0.5)
    assert (t.n, t.x, t.z, t.coeff, t.pattern) == (n, x, z, 0.5 + 0j, pattern)
    sites = data.draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(_LETTERS)))
    s = PauliTerm.from_sites(n, sites)
    assert (s.x, s.z) == reference_from_sites(n, sites)
    assert s.pattern == reference_pattern(n, s.x, s.z)


@given(letter_strings(), st.characters().filter(lambda c: c not in _LETTERS), st.integers(0, 70))
def test_bad_letters_raise_the_reference_refusal(pattern, letter, at):
    bad = pattern[:at] + letter + pattern[at:]
    site = min(at, len(bad) - 1)
    cases = (
        (lambda: PauliTerm.from_pattern(bad), lambda: reference_from_pattern(bad)),
        (lambda: _masks(enumerate(bad)), lambda: reference_from_pattern(bad)),
        (
            lambda: PauliSum.from_sites(len(bad), {site: letter}),
            lambda: reference_from_sites(len(bad), {site: letter}),
        ),
    )
    for build, reference in cases:
        with pytest.raises(ValueError) as want:
            reference()
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == str(want.value)


@st.composite
def wide_sums(draw):
    """Sums of up to 9 strings, or the zero sum, on one or more of ``_SIZES`` sites."""
    n = draw(_SIZES.filter(bool))
    strings = draw(st.lists(_strings(n), max_size=9))
    terms = [PauliTerm.from_pattern(p, complex(draw(_COEFFS), draw(_COEFFS))) for p in strings]
    return PauliSum.from_terms(terms) if terms else PauliSum.zero(n)


@given(wide_sums())
def test_json_and_repr_decode_as_the_reference(h):
    rows = sorted((reference_pattern(h.n, t.x, t.z), t.coeff.real, t.coeff.imag) for t in h.terms())
    want = {"n": h.n, "terms": [{"p": p, "re": re, "im": im} for p, re, im in rows]}
    assert json.dumps(h.to_json_dict()) == json.dumps(want)
    head = " + ".join(f"({t.coeff:.6g})*{reference_pattern(h.n, t.x, t.z)}" for t in h.terms()[:6])
    more = "" if len(h) <= 6 else f" + ... [{len(h)} terms]"
    assert repr(h) == f"PauliSum(n={h.n}: {head or '0'}{more})"
