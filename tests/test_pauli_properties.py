"""Property tests of the numerical backends against the dense oracle, of
the Lanczos Ritz step against scipy's tridiagonal solver, of the norm
split into the two ∏Z sectors against the dense oracle and the unsplit
norm, of the
vectorized pair kernel, its pieces (phase rule, popcount, pruning, pair
selection) and the array algebra against the reference loops and their
letter-table phase rule, ``int.bit_count`` and ``np.hypot``, of the row-block CSR build against the column-by-column
reference build, and of the letter codec, the JSON rows and the repr
against the letter-by-letter reference loops.

Generated sums draw their X masks from a small pool, so several strings
share one X mask (at most one entry per row of the CSR matrix); the pool always offers
``x = 0``, and an identity term is optional.
"""

import json
import operator
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    I_POWERS,
    Term,
    coefficient,
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
    reference_string_product,
    reference_sub,
    reference_toggle,
    term_bits,
    terms,
    worker_tasks,
)
from crda import pauli
from crda.frames import GateLayer, GateLayerKind, toggle
from crda.pauli import (
    _LANCZOS_TOL,
    PauliSum,
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
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        c = draw(_COEFFS) + (0.0 if real else 1j * draw(_COEFFS))
        rows.append(Term(n, draw(st.sampled_from(x_pool)), draw(masks), c))
    if draw(st.booleans()):
        rows.append(Term(n, 0, 0, draw(_COEFFS)))
    return reference_from_terms(n, rows)


@st.composite
def commutators(draw):
    n = draw(st.integers(2, 6))
    return commutator(draw(pauli_sums(n=n, real=True)), draw(pauli_sums(n=n, real=True)))


def _state(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


@st.composite
def built_sums(draw):
    """Sums on 4 to 12 sites of up to 40 strings, with few or many X masks
    (many lay a CSR matrix out in several blocks), or only ``x = 0``."""
    n = draw(st.integers(4, 12))
    masks = st.integers(0, (1 << n) - 1)
    x_pool = draw(st.sampled_from([[0], draw(st.lists(masks, min_size=1, max_size=3)), None]))
    rows = [
        Term(n, draw(masks if x_pool is None else st.sampled_from(x_pool)), draw(masks), draw(_COEFFS) + 1j * draw(_COEFFS))
        for _ in range(draw(st.integers(1, 40)))
    ]
    return reference_from_terms(n, rows)


def _many_mask_sum(n=12, terms=40, seed=12):
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 1 << n, size=(terms, 2)).tolist()
    return reference_from_terms(n, [Term(n, x, z, complex(*rng.standard_normal(2))) for x, z in masks])


@given(built_sums(), st.booleans())
@example(_many_mask_sum(), False)  # a 40-mask matrix laid out in 3 blocks
def test_build_scratch_bounds_the_traced_build(h, hermitian):
    # The simulation guard counts a generator's first build as its matrix
    # bound and _build_scratch_bytes; together they bound the traced peak
    # of the build, with X masks or none, real or complex.
    if hermitian:
        h = h + h.dagger()
    for warm in (PauliSum.from_pattern("XZ"), PauliSum.from_pattern("ZZ"), PauliSum(2, {})):
        warm._build_csr(warm._csr_dtype())  # numpy's and scipy's one-time caches are not the build's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h._build_csr(h._csr_dtype())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= h._matrix_bytes(h._csr_dtype()) + h._build_scratch_bytes()


@given(built_sums(), st.integers(0, 2**32 - 1))
@example(_many_mask_sum(), 0)  # a 40-mask sum in 3 row blocks
@example(PauliSum(12), 0)
def test_expectation_bytes_bound_the_traced_expectation(h, seed):
    # The simulation guard counts an observable's expectation as
    # _expectation_bytes, which bounds its traced peak, state planes and
    # row blocks together.
    psi = _state(seed, h.n)
    for warm in (PauliSum.from_pattern("XZ"), PauliSum.from_pattern("ZZ"), PauliSum(2, {})):
        warm.expectation(np.ones(4, dtype=complex))  # numpy's one-time caches are not the expectation's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h.expectation(psi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= h._expectation_bytes()


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
    # The norm stops once its proxy's Ritz value θ has a residual r <=
    # _LANCZOS_TOL |θ|, so θ lies within min(r, r² / gap) of the proxy's top
    # eigenvalue λ (Kato-Temple), gap the distance from λ to the nearest
    # distinct eigenvalue of the oracle's spectrum: only a clustered top
    # allows about r, not a degenerate one. The proxy is h, i h or h^† h,
    # whose θ is the squared norm; eigenvalues within tie = 1e-12 max(λ, 1)
    # of λ are λ, and tie allows rounding.
    dense = dense_oracle(h)
    hermitian = h.is_hermitian()
    gram = not hermitian and not (1j * h).is_hermitian()
    mu = np.linalg.eigvalsh(dense.conj().T @ dense if gram else dense if hermitian else 1j * dense)
    theta = spectral_norm(h) ** (2 if gram else 1)
    lam, r = max(-mu[0], mu[-1]), _LANCZOS_TOL * theta
    tie = 1e-12 * max(lam, 1.0)
    # per end of the spectrum within r of λ, seen as a top: its gap to the next distinct eigenvalue
    gap = min(
        end[-1] - np.max(end[end < end[-1] - tie], initial=-np.inf) for end in (mu, -mu[::-1]) if end[-1] >= lam - r
    )
    assert abs(theta - lam) <= min(r, r * r / gap) + tie


@given(commutators())
def test_commutator_norm_matrix_free_matches_dense(c):
    # commutators of Hermitian sums are anti-Hermitian: the i*C proxy
    _assert_norms_agree(c)


@given(pauli_sums(min_n=2))
@example(  # top eigenvalues 3.0001 ± 1e-8: an error of -2.7e-9 relative, within r
    PauliSum.from_pattern("III") + 1e-8 * PauliSum.from_pattern("XZZ")
    + 1e-4 * PauliSum.from_pattern("ZXZ") + 2.0 * PauliSum.from_pattern("IYX")
)
@example(  # each of ±1.118 four times over: the top is degenerate, not clustered, so r² / gap binds
    PauliSum.from_pattern("ZII") + 0.5 * PauliSum.from_pattern("XII")
)
def test_complex_sum_norm_matrix_free_matches_dense(h):
    # general complex weights: the h^dagger h proxy unless h is (anti-)Hermitian
    _assert_norms_agree(h)


@st.composite
def even_x_sums(draw, kind):
    """Sums on 2 to 8 sites whose X masks all have even popcount, so they commute with ∏Z, by proxy kind.

    ``antisymmetric``: imaginary weights on strings with an odd Y count (a
    real antisymmetric matrix); ``hermitian``: real weights (a complex
    Hermitian matrix wherever a Y count is odd); ``skew``: imaginary weights
    (the ``i m`` proxy of a complex matrix); ``nonnormal``: complex weights
    (the ``m^H m`` proxy). The pool offers ``x = 0`` except for
    antisymmetric sums, whose strings each need a Y.
    """
    n = draw(st.integers(2, 8))
    masks = st.integers(0, (1 << n) - 1)
    evens = masks.map(lambda x: x ^ (x.bit_count() & 1)).filter(bool)  # bit 0 evens an odd popcount
    x_pool = draw(st.lists(evens, min_size=1, max_size=3)) + ([] if kind == "antisymmetric" else [0])
    rows = []
    for _ in range(draw(st.integers(2, 8))):
        x, z, r = draw(st.sampled_from(x_pool)), draw(masks), draw(_COEFFS)
        if kind == "antisymmetric" and (x & z).bit_count() % 2 == 0:
            z ^= x & -x  # one Y more or less: an odd count
        c = complex(r, draw(_COEFFS)) if kind == "nonnormal" else r * (1j if kind in ("antisymmetric", "skew") else 1.0)
        rows.append(Term(n, x, z, c))
    return reference_from_terms(n, rows)


_PROXY_KINDS = ["antisymmetric", "hermitian", "skew", "nonnormal"]
_EVEN_X_SUMS = st.sampled_from(_PROXY_KINDS).flatmap(even_x_sums)


def _sectors(on, two_cpus=True):
    """Norms of sums whose X masks are all even split by ∏Z sector at every size (``on``) or never;
    the second sector's recurrence on a worker of the caller's when ``two_cpus``. Yields the worker's tasks."""
    return worker_tasks("_SECTOR_ENTRIES", on, two_cpus)


def _fresh(h):
    """``h`` with no kept plan or matrix."""
    return pauli._from_sorted(h.n, h._x, h._z, h._c)


def _norm_bits(h, on, two_cpus=True):
    """The norm's hex with the sector split ``on`` or off, and whether a recurrence ran on the worker."""
    with _sectors(on, two_cpus) as tasks:
        return float(spectral_norm(_fresh(h))).hex(), bool(tasks)


def _splits(h):
    """Whether a norm with the gate at 0 runs the two sector recurrences: two or more strings, an X mask."""
    return len(h) > 1 and bool(h._x.any())


@given(_EVEN_X_SUMS)
def test_sector_norms_match_dense(h):
    # split or not, each proxy's norm meets the dense oracle's tolerances
    for on in (False, True):
        with _sectors(on):
            _assert_norms_agree(_fresh(h))


@given(_EVEN_X_SUMS)
def test_sector_norms_have_the_same_bits_on_one_cpu_or_two(h):
    # the two recurrences read nothing of each other: at once on two
    # threads, or one after the other, they give the same bits
    for on in (False, True):
        (serial, none), (overlapped, some) = _norm_bits(h, on, False), _norm_bits(h, on, True)
        assert not none and some == (on and _splits(h))
        assert overlapped == serial


@given(pauli_sums(min_n=2), st.integers(1, 63))
def test_odd_x_mask_norms_keep_their_bits(h, x):
    # one X mask of odd popcount: the matrix mixes the sectors, so the gate
    # changes nothing and the norm keeps the unsplit bits
    x %= 1 << h.n
    x ^= (x.bit_count() + 1) & 1  # bit 0 makes an even popcount odd
    h = h + PauliSum(h.n, {(x, 0): 0.5})
    assert (pauli._popcount(h._x) & 1).any()
    (full, none), (gated, some) = _norm_bits(h, False), _norm_bits(h, True)
    assert not none and not some
    assert gated == full


@given(_EVEN_X_SUMS.filter(_splits), st.integers(0, 2**16 - 1))
def test_sector_recurrences_start_from_the_seeded_vectors_entries(h, seed):
    # each sector's recurrence starts from the seeded start vector's
    # entries of Z parity p, in index order, as a plain mask picks them; the
    # vector is real where the proxy's matrix is (i m for an anti-Hermitian
    # sum whose matrix m is imaginary)
    skew = not h.is_hermitian() and (1j * h).is_hermitian()
    real = h._csr_dtype() is float or (skew and (1j * h)._csr_dtype() is float)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << h.n)
    if not real:
        v = v + 1j * rng.standard_normal(1 << h.n)
    parity = np.bitwise_count(np.arange(1 << h.n)) % 2
    starts = []
    with _sectors(True, two_cpus=False), mock.patch.object(pauli, "_lanczos", lambda mul, u, *a: starts.append(u) or 1.0):
        spectral_norm(_fresh(h), seed=seed)
    assert [u.tobytes() for u in starts] == [v[parity == p].tobytes() for p in (0, 1)]


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize(
    "kind, factor, norm",
    [
        ("symmetric", 1.0, 2.0),
        ("antisymmetric", 1j, 2.0),
        ("complex hermitian", 1.0, 2.0),
        ("skew", 1j, 2.0),
        ("nonnormal", 1 + 1j, 2.0 * 2**0.5),
    ],
)
def test_sum_zero_on_one_sector(n, kind, factor, norm):
    # P + ∏Z P, for P = X0X1 (X0Y1 for the antisymmetric and complex
    # Hermitian kinds), is 2P on the even sector and 0 on the odd one: the
    # odd block stores no entry, its recurrence stops at its first β = 0
    # with no division (a warning is an error), and the norm is the even one's
    p = PauliSum.from_pattern(("XX" if kind in ("symmetric", "skew", "nonnormal") else "XY") + "I" * (n - 2))
    h = factor * (p + PauliSum.from_pattern("Z" * n) @ p)
    even, odd = _fresh(h)._build_csr(h._csr_dtype(), sectors=True)
    assert odd.nnz == 0 and even.nnz == 1 << (n - 1)
    for on in (False, True):
        with _sectors(on) as tasks, warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_norm(_fresh(h)) == pytest.approx(norm, rel=1e-15)
        assert bool(tasks) == on


def _lanczos_ghosts(rng, k):
    """``alpha, beta`` of ``k`` Lanczos steps, not reorthogonalized, on a diagonal with clustered top values.

    Lost orthogonality repeats converged Ritz values (Paige, 1980), so the
    tridiagonal holds near-duplicate Ritz values at its top.
    """
    spread = 10.0 ** rng.uniform(-12, -3)
    d = np.concatenate([rng.uniform(-1, 1, rng.integers(20, 200)), 2 + spread * rng.standard_normal(3)])
    v, v_prev = rng.standard_normal(d.size), np.zeros(d.size)
    v /= np.linalg.norm(v)
    alpha, beta = [], [0.0]
    for _ in range(k):
        w = d * v - beta[-1] * v_prev
        alpha.append(v @ w)
        w -= alpha[-1] * v
        beta.append(np.linalg.norm(w))
        v_prev, v = v, w / beta[-1]
    return alpha, beta[1:k]


@st.composite
def tridiagonals(draw):
    k = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["skew", "general", "decades", "ghosts"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ghosts":
        return _lanczos_ghosts(rng, k)
    alpha = np.zeros(k) if kind == "skew" else rng.standard_normal(k)
    beta = 10.0 ** rng.uniform(-12, 3, k - 1) if kind == "decades" else rng.uniform(0.01, 2, k - 1)
    return alpha.tolist(), beta.tolist()


def _reference_ritz(alpha, beta):
    """The Ritz value of largest magnitude and its vector's last entry, by scipy's tridiagonal solver.

    Divide and conquer, the algorithm numpy's ``eigh`` runs on a matrix
    that is already tridiagonal: near-duplicate Ritz values leave their
    vectors free within their span, so only the same algorithm pins them.
    """
    try:
        theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta, lapack_driver="stevd")
    except ValueError:
        pytest.skip("this scipy has no stevd driver for eigh_tridiagonal")
    i = np.argmax(np.abs(theta))
    return theta[i], s[-1, i]


@given(tridiagonals())
@example(([0.0], []))
@example(([-0.75], []))
def test_top_ritz_matches_scipy_tridiagonal(ab):
    alpha, beta = ab
    theta, s = pauli._top_ritz(alpha, beta)
    want_theta, want_s = _reference_ritz(alpha, beta)
    assert abs(abs(theta) - abs(want_theta)) <= 1e-14 * abs(want_theta)
    assert abs(abs(s) - abs(want_s)) <= 1e-12


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
_FINITE_EDGES = [1.0, -1.0, 1.0 + 4e-15, -1.0 + 3e-15, 0.5, 0.0, -0.0]
_EDGE_COEFFS = st.sampled_from(_FINITE_EDGES + [1e154, -1e300])


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


@st.composite
def blocked_pairs(draw):
    """Two sums of up to 24 strings on 40 or 130 sites (one or three mask words), and a pair block of 1-64 pairs.

    Masks come from a pool of up to six or are drawn anew, so products
    collide in every key word, or only in some, or not at all.
    """
    n = draw(st.sampled_from([40, 130]))
    pool = draw(st.lists(_sparse_masks(n), min_size=1, max_size=6))
    masks = st.sampled_from(pool) | _sparse_masks(n) | st.integers(0, (1 << n) - 1)
    weights = _COEFFS | _EDGE_COEFFS

    def one_sum():
        keys = [(draw(masks), draw(masks)) for _ in range(draw(st.integers(1, 24)))]
        return PauliSum(n, {k: complex(draw(weights), draw(weights)) for k in keys})

    return one_sum(), one_sum(), draw(st.integers(1, 64))


@given(blocked_pairs())
def test_blocked_pair_kernel_equals_reference_loop(case):
    # blocks of a few pairs: every sum spans several of a's row blocks, and
    # the anticommuting pairs several chunks, each block written in place
    a, b, block = case
    with mock.patch.object(pauli, "_PAIR_BLOCK", block):
        _assert_matches_reference(operator.matmul, reference_product, a, b)
        _assert_matches_reference(commutator, reference_commutator, a, b)


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
def test_equal_sums_hash_equal(pair):
    a, b = pair
    # one mapping inserted in two orders
    weights = {(x, z): c for x, z, c in a._keyed()}
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
    order, got_first = _grouped(x, z)
    assert order.tolist() == want
    # no runs are marked exactly when no two keys share their most significant x word
    tops = x[:, -1].tolist()
    assert (got_first is None) == (len(set(tops)) == len(tops))
    if got_first is not None:
        assert got_first.dtype == bool and got_first.tolist() == first


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
    assert coefficient(a @ b, "YI") == 0.0 and len(a @ b) == 1


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


def test_array_phase_rule_matches_reference_rule():
    # the kernel's rule on three mask words against the letter table, site
    # by site; an odd power of i is an anticommuting pair
    rng = np.random.default_rng(130)
    n, w = 130, 3
    masks = [[int.from_bytes(rng.bytes(17), "little") >> 6 for _ in range(500)] for _ in range(4)]
    assert max(map(max, masks)).bit_length() == n
    words = [_mask_words(m, w) for m in masks]
    assert _mask_ints(words[0]) == masks[0]
    want = [reference_string_product(n, *q) for q in zip(*masks)]
    assert [(x1 ^ x2, z1 ^ z2) for x1, z1, x2, z2 in zip(*masks)] == [(x, z) for x, z, _ in want]
    x1, z1, x2, z2 = words
    ys, product = (_popcount(x1 & z1), _popcount(x2 & z2)), (x1 ^ x2, z1 ^ z2)
    assert _product_phase_exp(z1, x2, ys, product).tolist() == [e for _, _, e in want]
    parity = np.bitwise_xor.reduce(_clash_parity(*words), axis=1)  # the words' parities, as the kernel XORs them
    assert parity.tolist() == [e & 1 for _, _, e in want]


@pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
def test_popcount_equals_int_bit_count(w):
    # all-ones words among random ones: five of them count 320, past a byte
    rng = np.random.default_rng(w)
    ones = (1 << 64 * w) - 1
    masks = [0, ones, ones ^ 1, 1 << 64 * w - 1] + [int.from_bytes(rng.bytes(8 * w), "little") for _ in range(60)]
    words = _mask_words(masks, w)
    counts = _popcount(words)
    assert counts.dtype == np.int64
    assert counts.tolist() == [m.bit_count() for m in masks]
    assert _popcount(words.reshape(8, 8, w)).tolist() == counts.reshape(8, 8).tolist()


_TOL = pauli.PRUNE_TOL
_HALF_TOL = _TOL / np.sqrt(2.0)


@pytest.mark.parametrize(
    "re, im",
    [
        (_TOL, 0.0),
        (np.nextafter(_TOL, np.inf), 0.0),
        (0.0, -np.nextafter(_TOL, np.inf)),
        (0.8 * _TOL, 0.8 * _TOL),  # only hypot keeps it
        (_HALF_TOL, _HALF_TOL),
        (np.nextafter(_HALF_TOL, 0.0), np.nextafter(_HALF_TOL, 0.0)),
        (np.nextafter(_HALF_TOL, np.inf), -np.nextafter(_HALF_TOL, np.inf)),
        (5e-324, 5e-324),
        (2.2e-308, -1e-310),
        (0.0, 0.0),
        (-0.0, -0.0),
        (1e308, 1e308),
        (-1.0, 0.5),
    ],
)
def test_pruned_keeps_what_hypot_keeps(re, im):
    # one weight alone, and among weights either part of which decides,
    # below and above the count from which the max-first test runs
    mixed = [1.0, complex(re, im), 1e-15, 0.0, -3j]
    for c in ([complex(re, im)], mixed, mixed * (pauli._MAX_FIRST_WEIGHTS // 5 + 1)):
        c = np.array(c, dtype=complex)
        keys = np.arange(len(c), dtype=np.uint64)[:, None]
        x, z, kept = pauli._pruned(keys, keys, c)
        want = np.hypot(c.real, c.imag) > _TOL
        assert x[:, 0].tolist() == np.flatnonzero(want).tolist()
        assert z.tolist() == x.tolist() and kept.tobytes() == c[want].tobytes()


def _random_sum(rng, n, size):
    """``size`` random strings on ``n`` sites, with complex normal weights."""
    masks = [[int.from_bytes(rng.bytes(-(-n // 8)), "little") % (1 << n) for _ in range(2)] for _ in range(size)]
    weights = rng.standard_normal((size, 2))
    return PauliSum(n, {(x, z): complex(*c) for (x, z), c in zip(masks, weights)})


@pytest.mark.parametrize("n, w", [(40, 1), (130, 3)])
def test_anticommuting_pairs_in_row_major_order(n, w):
    rng = np.random.default_rng(n)
    a, b = (_random_sum(rng, n, size) for size in (37, 53))
    i, j = pauli._anticommuting_pairs(a, b)
    # an odd power of i in the reference product
    parity = [[reference_string_product(n, p.x, p.z, q.x, q.z)[2] & 1 for q in terms(b)] for p in terms(a)]
    want_i, want_j = np.nonzero(np.array(parity))
    assert a._x.shape[1] == w
    assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()


@pytest.mark.parametrize("n", [40, 150])
def test_large_pair_equals_reference_loop(n):
    # 300 x 300 terms: the full product table and the selected pairs at a
    # size the generated pairs never reach, on one mask word and on three
    rng = np.random.default_rng(300 + n)
    a, b = _random_sum(rng, n, 300), _random_sum(rng, n, 300)
    assert len(a) == len(b) == 300 and a._x.shape[1] == -(-n // 64)
    assert term_bits(a @ b) == term_bits(reference_product(a, b))
    assert term_bits(commutator(a, b)) == term_bits(reference_commutator(a, b))


@pytest.mark.parametrize("n", [40, 130])
def test_multi_block_product_equals_reference_loop(n):
    # 150 x 150 strings over 12 x masks and 12 z masks, with weights that
    # cancel exactly or to below PRUNE_TOL and carry signed zeros: the table
    # and the anticommuting pairs each span more than one _PAIR_BLOCK
    rng = np.random.default_rng(n)
    pool = [int.from_bytes(rng.bytes(17), "little") % (1 << n) for _ in range(24)]
    parts = _FINITE_EDGES + rng.standard_normal(7).tolist()

    def one_sum():
        keys = {(pool[rng.integers(12)], pool[12 + rng.integers(12)]) for _ in range(400)}
        return PauliSum(n, {k: complex(*rng.choice(parts, 2)) for k in sorted(keys)[:150]})

    a, b = one_sum(), one_sum()
    assert len(a) * len(b) > 2 * pauli._PAIR_BLOCK and a._x.shape[1] == -(-n // 64)
    assert len(pauli._anticommuting_pairs(a, b)[0]) > pauli._PAIR_BLOCK
    assert term_bits(a @ b) == term_bits(reference_product(a, b))
    assert term_bits(commutator(a, b)) == term_bits(reference_commutator(a, b))


# ----------------------------------------------------------------------
# the row-block CSR build against the column-by-column reference
# ----------------------------------------------------------------------


@st.composite
def csr_sums(draw, max_n=14, diagonal=False, min_n=1, even=False):
    """Sums on ``min_n`` to ``max_n`` sites over a pool of one to three X masks, or of Z strings alone.

    Weights carry signed zeros and cancel; in about half the sums every
    matrix weight ``c (-i)^|x&z|`` is real, and the others may have a few
    such weights real. About half the strings come with a partner on the
    same X mask whose matrix weight is the same up to sign: the pair sums
    to an exact zero in half the rows. With ``even``, every X mask has even
    popcount, and the matrix commutes with ∏Z.
    """
    n = draw(st.integers(min_n, max_n))
    masks = st.integers(0, (1 << n) - 1)
    x_pool = [0] if diagonal else draw(st.lists(masks, min_size=1, max_size=3))
    if even:  # every X mask of even popcount: bit 0 evens an odd one
        x_pool = [x ^ (x.bit_count() & 1) for x in x_pool]
    parts = _COEFFS | _EDGE_COEFFS
    real = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        x, z = draw(st.sampled_from(x_pool)), draw(masks)
        if real:
            c = draw(parts) * I_POWERS[(x & z).bit_count() % 4]
        else:
            c = complex(draw(parts), draw(parts))
        rows.append(Term(n, x, z, c))
        if draw(st.booleans()):
            z2, sign = draw(masks), draw(st.sampled_from([1.0, -1.0]))
            phase = I_POWERS[((x & z2).bit_count() - (x & z).bit_count()) % 4]
            rows.append(Term(n, x, z2, sign * c * phase))
    return reference_from_terms(n, rows)


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


def _block_builds(h, dtype=complex, sectors=False):
    """``h._build_csr(dtype, sectors)`` with blocks of one, of a few and of the default entries,
    each on a copy of ``h`` that makes its own plan at that block size."""
    for entries in (1, 24, pauli._BLOCK_ENTRIES):
        with mock.patch.object(pauli, "_BLOCK_ENTRIES", entries):
            yield _fresh(h)._build_csr(dtype, sectors)


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


@given(csr_sums(min_n=2, even=True))
def test_sector_blocks_equal_the_reference_rows(h):
    # Block p holds the rows i of Z parity p at rows i >> 1: each row's
    # entries as the whole matrix stores them, in the same order, at
    # columns (i ^ x) >> 1, so each block row's matvec has the whole row's bits
    full, rows, v = reference_csr(h), np.arange(1 << h.n), _state(h.n, h.n)
    for dtype in (complex, float) if h._csr_dtype() is float else (complex,):
        want = full.copy()
        if dtype is float:
            want.data = full.data.real.copy()
        want = _without_zeros(want)
        for blocks in _block_builds(h, dtype, sectors=True):
            for p, got in enumerate(blocks):
                picked = rows[np.bitwise_count(rows) % 2 == p]
                assert np.array_equal(picked >> 1, np.arange(1 << (h.n - 1)))
                at = np.concatenate([np.arange(want.indptr[i], want.indptr[i + 1]) for i in picked])
                indptr = np.concatenate(([0], np.cumsum(np.diff(want.indptr)[picked]))).astype(want.indptr.dtype)
                rows_of_p = scipy.sparse.csr_matrix((want.data[at], want.indices[at] >> 1, indptr), shape=got.shape)
                _assert_same_csr(got, rows_of_p)
                assert (got @ v[picked]).tobytes() == (want @ v)[picked].tobytes()


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
    # apply keeps a real matrix where every weight is real, which gives the
    # complex matvec's bits, for Z strings as for any other. An
    # expectation builds and reads no matrix and gives the matvec's bits.
    v = _state(seed, h.n)
    rng = np.random.default_rng(seed)
    v.real[rng.random(len(v)) < 0.3] = 0.0
    v.imag[rng.random(len(v)) < 0.3] = -0.0
    want = reference_csr(h) @ v
    expectation = np.array(complex(np.sum(np.conj(v) * want))).tobytes()
    assert np.array(h.expectation(v)).tobytes() == expectation
    assert h._matrix is None
    assert h.apply(v).tobytes() == want.tobytes()
    assert np.array(h.expectation(v)).tobytes() == expectation
    assert h._matrix.dtype == np.dtype(h._csr_dtype())
    assert h._matrix.format == "csr"


@given(csr_sums(max_n=6))
def test_real_dtype_exactly_when_the_matrix_is_real(h):
    assert (h._csr_dtype() is float) == (not dense_oracle(h).imag.any())


@st.composite
def y_heavy_sums(draw):
    """Sums whose strings hold Y on a drawn mask ``y`` (``x & z == y``), with
    weight parts from the edge values, signed zeros among them, about half the time."""
    n = draw(st.integers(1, 10))
    masks = st.integers(0, (1 << n) - 1)
    parts = _COEFFS | _EDGE_COEFFS
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        y, r, xs = draw(masks), draw(masks), draw(masks)
        x, z = y | (r & xs), y | (r & ~xs & ((1 << n) - 1))
        rows.append(Term(n, x, z, complex(draw(parts), draw(parts))))
    return reference_from_terms(n, rows)


@given(csr_sums() | y_heavy_sums())
def test_csr_dtype_equals_per_term_rule(h):
    # the reference walks the strings: each matrix weight c i^-|x&z| real
    real = all((t.coeff * I_POWERS[-(t.x & t.z).bit_count() % 4]).imag == 0.0 for t in terms(h))
    assert h._csr_dtype() is (float if real else complex)


@given(csr_sums(max_n=10) | csr_sums(max_n=10, diagonal=True))
def test_matrix_bytes_bound_the_kept_matrix(h):
    m, need = h._operator(), h._matrix_bytes(h._csr_dtype())
    held = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert need >= held
    if m.nnz == len(h._layout().xs) << h.n:  # no exact zero left out
        assert need == held


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
        for build in (lambda: PauliSum.from_pattern(pattern), lambda: PauliSum.from_sites(0, {})):
            with pytest.raises(ValueError, match="need at least one site"):
                build()
        return
    assert terms(PauliSum.from_pattern(pattern, 0.5)) == [Term(n, x, z, 0.5 + 0j)]
    sites = data.draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(_LETTERS)))
    (s,) = terms(PauliSum.from_sites(n, sites))
    assert (s.x, s.z) == reference_from_sites(n, sites)
    assert _pattern(n, s.x, s.z) == reference_pattern(n, s.x, s.z)


@given(letter_strings(), st.characters().filter(lambda c: c not in _LETTERS), st.integers(0, 70))
def test_bad_letters_raise_the_reference_refusal(pattern, letter, at):
    bad = pattern[:at] + letter + pattern[at:]
    site = min(at, len(bad) - 1)
    cases = (
        (lambda: PauliSum.from_pattern(bad), lambda: reference_from_pattern(bad)),
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
    rows = [Term.from_pattern(p, complex(draw(_COEFFS), draw(_COEFFS))) for p in strings]
    return reference_from_terms(n, rows)


@given(wide_sums())
def test_json_and_repr_decode_as_the_reference(h):
    rows = sorted((reference_pattern(h.n, t.x, t.z), t.coeff.real, t.coeff.imag) for t in terms(h))
    want = {"n": h.n, "terms": [{"p": p, "re": re, "im": im} for p, re, im in rows]}
    assert json.dumps(h.to_json_dict()) == json.dumps(want)
    head = " + ".join(f"({t.coeff:.6g})*{reference_pattern(h.n, t.x, t.z)}" for t in terms(h)[:6])
    more = "" if len(h) <= 6 else f" + ... [{len(h)} terms]"
    assert repr(h) == f"PauliSum(n={h.n}: {head or '0'}{more})"
