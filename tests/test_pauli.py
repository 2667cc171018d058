"""Pauli-string algebra: products, commutators, norms, exponentials."""

import itertools
import math
import operator
import os
import re
import resource
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    Term,
    coefficient,
    dense_oracle,
    heis_da_commutator,
    kron_pattern,
    random_pauli_sum,
    reference_csr,
    reference_from_terms,
    reference_product,
    terms,
    worker_tasks,
)
from crda import pauli
from crda.device import Lattice
from crda.errors import xy2d_digital_hamiltonians
from crda.frames import GateLayer, GateLayerKind, toggle
from crda.hamiltonians import HamiltonianKind, TimeDependentHamiltonian, build_canonical
from crda.pauli import (
    ConvergenceError,
    DenseLimitError,
    PauliSum,
    commutator,
    expm_hermitian,
    multiply,
    spectral_norm,
)


def _one_string(p: PauliSum) -> tuple[str, complex]:
    """The pattern and weight of a sum of one string."""
    (t,) = terms(p)
    return t.pattern, t.coeff


class TestTermProduct:
    """Products of one-string sums through ``multiply``, which is ``a @ b``."""

    def test_xy_gives_iz(self):
        p = multiply(PauliSum.from_pattern("XI"), PauliSum.from_pattern("YI"))
        assert _one_string(p) == ("ZI", 1j)

    def test_xx_times_zz_gives_minus_yy(self):
        p = multiply(PauliSum.from_pattern("XX"), PauliSum.from_pattern("ZZ"))
        assert _one_string(p) == ("YY", -1)

    def test_identity_absorbs_coefficient(self):
        for pat in ("XZ", "YY", "IZ"):
            p = multiply(PauliSum.from_pattern("II"), PauliSum.from_pattern(pat, 2.5j))
            assert _one_string(p) == (pat, 2.5j)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="site count mismatch"):
            multiply(PauliSum.from_pattern("X"), PauliSum.from_pattern("XX"))

    def test_random_products_match_dense(self, rng):
        for n in (1, 2, 4):
            for _ in range(20):
                a = "".join("IXYZ"[i] for i in rng.integers(0, 4, n))
                b = "".join("IXYZ"[i] for i in rng.integers(0, 4, n))
                p = multiply(PauliSum.from_pattern(a), PauliSum.from_pattern(b))
                ref = kron_pattern(a) @ kron_pattern(b)
                assert np.allclose(dense_oracle(p), ref)

    def test_multiply_is_matmul(self, rng):
        for n in (1, 3, 5):
            a, b = random_pauli_sum(rng, n), random_pauli_sum(rng, n)
            assert multiply(a, b) == a @ b

    def test_reference_phase_rule_matches_dense_oracle(self):
        # the test references' own rule, a letter table read off the 2x2
        # matrices, against Kronecker products: every pair of two-site strings
        patterns = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
        for a, b in itertools.product(patterns, repeat=2):
            p = reference_product(PauliSum.from_pattern(a), PauliSum.from_pattern(b))
            assert np.array_equal(dense_oracle(p), kron_pattern(a) @ kron_pattern(b))


class TestCommutator:
    def test_same_bond_two_flip_strings_commute(self):
        a = PauliSum.from_pattern("XX")
        b = PauliSum.from_pattern("ZZ")
        assert commutator(a, b).is_zero()

    def test_single_site_relation(self):
        c = commutator(PauliSum.from_pattern("X"), PauliSum.from_pattern("Y"))
        assert c == PauliSum.from_pattern("Z", 2j)

    def test_shared_leg_expansion(self):
        # [x1x2 + x1x3, y1y2 + y1y3] = 2i z1 (x2 y3 + y2 x3)
        a = PauliSum.from_pattern("XXI") + PauliSum.from_pattern("XIX")
        b = PauliSum.from_pattern("YYI") + PauliSum.from_pattern("YIY")
        got = commutator(a, b)
        want = PauliSum.from_pattern("ZXY", 2j) + PauliSum.from_pattern("ZYX", 2j)
        assert got.allclose(want)
        da, db = dense_oracle(a), dense_oracle(b)
        assert np.allclose(dense_oracle(got), da @ db - db @ da)

    def test_random_sums_match_dense(self, rng):
        for n in (2, 3, 6):
            a = random_pauli_sum(rng, n)
            b = random_pauli_sum(rng, n)
            da, db = dense_oracle(a), dense_oracle(b)
            assert np.allclose(
                dense_oracle(commutator(a, b)), da @ db - db @ da, atol=1e-12
            )
            assert np.allclose(dense_oracle(a @ b), da @ db, atol=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            commutator(PauliSum.from_pattern("X"), PauliSum.from_pattern("XX"))

    def test_anticommuting_strings_commutator_is_twice_their_product(self):
        a, b = PauliSum.from_pattern("XY"), PauliSum.from_pattern("YY")
        assert commutator(a, b) == 2.0 * (a @ b)
        assert commutator(PauliSum.from_pattern("XX"), b).is_zero()


class TestDense:
    def test_z_single_qubit(self):
        assert np.allclose(
            PauliSum.from_pattern("Z").to_dense(), np.diag([1.0, -1.0])
        )

    def test_xz_two_qubits(self):
        # site 0 carries X (least significant bit), site 1 carries Z
        got = PauliSum.from_pattern("XZ").to_dense()
        assert np.allclose(got, np.kron(kron_pattern("Z"), kron_pattern("X")))
        assert got[0, 1] == 1 and got[2, 3] == -1

    def test_single_term_chain(self):
        h = PauliSum.from_sites(2, {0: "X", 1: "Z"}, 1.0)
        assert np.allclose(h.to_dense(), dense_oracle(h))

    def test_dense_limit_enforced(self):
        with pytest.raises(DenseLimitError):
            PauliSum.from_pattern("X" * 13).to_dense()

    def test_sparse_matches_dense(self, rng):
        h = random_pauli_sum(rng, 5)
        assert np.allclose(h.to_sparse().toarray(), dense_oracle(h))


class TestApply:
    def test_x_flips_ground_state(self):
        psi = np.zeros(2, dtype=complex)
        psi[0] = 1.0
        out = PauliSum.from_pattern("X").apply(psi)
        assert np.allclose(out, [0.0, 1.0])

    def test_zz_phase_on_01(self):
        # |01> in site-1-leftmost reading: site 1 in 0, site 2 in 1 -> index 2
        psi = np.zeros(4, dtype=complex)
        psi[2] = 1.0
        out = PauliSum.from_pattern("ZZ").apply(psi)
        assert np.allclose(out, -psi)

    def test_random_six_qubits_matches_dense(self, rng):
        h = random_pauli_sum(rng, 6, nterms=12)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.allclose(h.apply(v), dense_oracle(h) @ v, atol=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliSum.from_pattern("XX").apply(np.zeros(2))


class TestFrobenius:
    def test_unit_string_normalized(self):
        assert PauliSum.from_pattern("ZZ").frobenius_norm(normalized=True) == 1.0

    def test_identity_unnormalized(self):
        for n in (1, 3, 6):
            h = PauliSum(n, {(0, 0): 1.0})
            assert np.isclose(h.frobenius_norm(normalized=False), 2 ** (n / 2))

    def test_matches_dense_trace(self, rng):
        for n in (2, 4):
            h = random_pauli_sum(rng, n)
            m = dense_oracle(h)
            ref = np.sqrt(np.trace(m.conj().T @ m).real / 2**n)
            assert np.isclose(h.frobenius_norm(normalized=True), ref, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 64, 2048, 5000])
    def test_zero_sum_is_zero_on_any_size(self, n):
        # 2^(n/2) alone overflows float64 from 2048 sites on
        for normalized in (True, False):
            assert PauliSum(n).frobenius_norm(normalized) == 0.0

    @pytest.mark.parametrize(
        "h, normalized",
        [
            (PauliSum.from_pattern("XX", 1e160), True),  # its square overflows
            (PauliSum.from_pattern("XI", 1e154) + PauliSum.from_pattern("IX", 1e154), True),  # their sum does
            (PauliSum(2048, {(0, 0): 1.0}), False),  # the scale does
        ],
    )
    def test_overflow_raises(self, h, normalized):
        with pytest.raises(ValueError, match="overflows float64"):
            h.frobenius_norm(normalized)

    def test_finite_norms_keep_their_bits(self, rng):
        # each weight squared by ** and summed left to right, as a loop would
        h = random_pauli_sum(rng, 5, nterms=20) + PauliSum.from_pattern("XXIII", 1.3e154)
        total = 0.0
        for t in terms(h):
            total += abs(t.coeff) ** 2
        assert h.frobenius_norm() == float(np.sqrt(total))
        assert h.frobenius_norm(False) == float(np.sqrt(total) * 2 ** 2.5)
        assert PauliSum(2046, {(0, 0): 1.0}).frobenius_norm(False) == 2.0**1023


class TestSpectralNorm:
    def test_single_string(self):
        assert spectral_norm(PauliSum.from_pattern("X")) == 1.0

    def test_xy_plus_yx(self):
        h = PauliSum.from_pattern("XY") + PauliSum.from_pattern("YX")
        ref = np.max(np.abs(np.linalg.eigvalsh(dense_oracle(h))))
        assert np.isclose(ref, 2.0)
        assert np.isclose(spectral_norm(h), 2.0, atol=1e-12)

    def test_chirality_operator(self):
        h = (
            PauliSum.from_pattern("XYZ")
            - PauliSum.from_pattern("XZY")
            + PauliSum.from_pattern("YZX")
            - PauliSum.from_pattern("YXZ")
            + PauliSum.from_pattern("ZXY")
            - PauliSum.from_pattern("ZYX")
        )
        ref = np.max(np.abs(np.linalg.eigvalsh(dense_oracle(h))))
        assert np.isclose(ref, 2 * np.sqrt(3))
        assert np.isclose(spectral_norm(h), 2 * np.sqrt(3), atol=1e-10)

    def test_hermitian_bounds_by_frobenius(self, rng):
        for _ in range(5):
            h = random_pauli_sum(rng, 4, real=True)
            s = spectral_norm(h)
            assert s <= h.frobenius_norm(normalized=False) + 1e-9
            assert s >= h.frobenius_norm(normalized=True) - 1e-9

    def test_matrix_free_matches_dense(self, rng):
        for real in (True, False):
            h = random_pauli_sum(rng, 10, nterms=10, real=real)
            ref = float(np.linalg.norm(dense_oracle(h), 2))
            assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)

    def test_matrix_free_antihermitian(self, rng):
        a = random_pauli_sum(rng, 9, nterms=8, real=True)
        b = random_pauli_sum(rng, 9, nterms=8, real=True)
        c = commutator(a, b)
        ref = np.max(np.abs(np.linalg.eigvalsh(1j * dense_oracle(c))))
        assert spectral_norm(c) == pytest.approx(ref, rel=1e-12)

    def test_deterministic_given_seed(self, rng):
        h = random_pauli_sum(rng, 9, nterms=10, real=True)
        a = spectral_norm(h, seed=11)
        b = spectral_norm(h, seed=11)
        assert a == b

    def test_nonconvergence_is_distinct_error(self, rng, monkeypatch):
        h = random_pauli_sum(rng, 5, nterms=10, real=True)
        monkeypatch.setattr(pauli, "_LANCZOS_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            spectral_norm(h)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_one_string_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 9):
            c = complex(*rng.standard_normal(2))
            for coeff in (c, c.real, 1j * c.imag):
                pattern = "".join("IXYZ"[i] for i in rng.integers(0, 4, n))
                h = PauliSum.from_pattern(pattern, coeff)
                assert spectral_norm(h, seed=seed) == abs(coeff)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["hermitian", "antihermitian", "complex"])
    def test_exact_at_full_dimension(self, n, kind, rng, monkeypatch):
        # the recurrence ends at step 2^n, where its Ritz values are exact
        h = random_pauli_sum(rng, n, real=kind != "complex")
        if kind == "antihermitian":
            h = 1j * h
        assert len(h) > 1
        ref = float(np.linalg.norm(dense_oracle(h), 2))
        monkeypatch.setattr(pauli, "_LANCZOS_MAX_ITER", 1 << n)
        assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)

    def test_zero_operator(self):
        assert spectral_norm(PauliSum(3)) == 0.0

    @pytest.mark.parametrize("kind", ["hermitian", "commutator", "complex"])
    def test_overflow_is_refused_without_warnings(self, kind, rng):
        # weights of 1e160: each proxy's squared vector norms overflow float64
        if kind == "commutator":
            h = commutator(random_pauli_sum(rng, 5, real=True), random_pauli_sum(rng, 5, real=True))
        else:
            h = random_pauli_sum(rng, 5, real=kind == "hermitian")
        assert len(h) > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="overflowed float64"):
                spectral_norm(1e160 * h)

    def test_small_first_beta_is_no_breakdown(self):
        # i (II + 1e-8 XI): the first β is about 1e-8 and left out the top
        # eigenvalue 1 + 1e-8, returning 1 + 5.1e-9; the second spans it
        h = PauliSum.from_pattern("II", 1j) + PauliSum.from_pattern("XI", 1e-8j)
        assert spectral_norm(h) == pytest.approx(1.0 + 1e-8, rel=1e-15)

    def test_largest_finite_trotter_norm(self):
        # weights of 2e152 keep the squares finite: the norm is 4√3 j² for j = 1e76
        h = heis_da_commutator(4, 1e76)
        assert spectral_norm(h) == pytest.approx(4 * np.sqrt(3) * 1e152, rel=1e-12)


def _no_lanczos(*args, **kwargs):
    raise AssertionError("a sum of Z strings ran a Lanczos step")


class TestDiagonalNorm:
    """A sum of Z strings: the largest |entry| of its CSR matrix, with no Lanczos step."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_zz_chain_norm_is_its_bond_count(self, n, monkeypatch):
        monkeypatch.setattr(pauli, "_top_ritz", _no_lanczos)
        for boundary in ("open", "periodic"):
            lat = Lattice.chain(n, boundary)
            # every bond is +1 on the all-zeros basis state
            bonds = len(list(lat.bonds()))
            assert spectral_norm(build_canonical(HamiltonianKind.H_ZZ, lat)) == float(bonds)

    def test_memory_guard_counts_the_csr_build(self, monkeypatch):
        # one real entry and int32 index per row, the row pointers, and the
        # build's scratch; no Krylov vectors
        asked = []
        monkeypatch.setattr(pauli, "_check_memory", lambda need, what: asked.append((need, what)))
        h = build_canonical(HamiltonianKind.H_ZZ, Lattice.chain(20))
        matrix = (12 << 20) + 4 * ((1 << 20) + 1)
        assert h._matrix_bytes(float) == matrix
        assert spectral_norm(h) == 19.0
        assert asked == [(matrix + h._build_scratch_bytes(), "diagonal norm"), (matrix, "sparse matrix")]
        assert h._matrix.nnz == 1 << 20

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_dense_oracle(self, n, rng, monkeypatch):
        monkeypatch.setattr(pauli, "_top_ritz", _no_lanczos)
        for real in (True, False):
            rows = [
                Term.from_pattern(
                    "".join("IZ"[b] for b in rng.integers(0, 2, n)),
                    rng.standard_normal() + (0.0 if real else 1j * rng.standard_normal()),
                )
                for _ in range(6)
            ]
            h = reference_from_terms(n, rows)
            ref = float(np.linalg.norm(dense_oracle(h), 2))
            assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)


def _heis_layer(n: int, first: int) -> PauliSum:
    """Heisenberg bonds (k, k+1) for k = first, first + 2, ... (0-based)."""
    return reference_from_terms(
        n, [Term.from_sites(n, {k: p, k + 1: p}) for k in range(first, n - 1, 2) for p in "XYZ"]
    )


def _split_commutator(model: str, size) -> PauliSum:
    if model == "heis_digital":
        return commutator(_heis_layer(size, 0), _heis_layer(size, 1))
    if model == "heis_da":
        return heis_da_commutator(size)
    return commutator(*xy2d_digital_hamiltonians(Lattice.square(*size), 1.0))


class TestNormPath:
    """``spectral_norm`` runs one Lanczos path at every size, never dense."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_one_path_at_every_size(self, n, rng, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("dense path taken")

        h = random_pauli_sum(rng, n, real=n % 2 == 0)
        ref = float(np.linalg.norm(dense_oracle(h), 2)) if n <= 10 else None
        monkeypatch.setattr(PauliSum, "to_dense", refuse)
        s = spectral_norm(h)
        if ref is None:
            assert h.frobenius_norm() - 1e-9 <= s <= sum(abs(t.coeff) for t in terms(h)) + 1e-9
        else:
            assert s == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "model, size",
        [
            *[(m, n) for m in ("heis_digital", "heis_da") for n in range(7, 11)],
            ("xy2d_digital", (2, 4)),
            ("xy2d_digital", (3, 3)),
            ("xy2d_digital", (2, 5)),
        ],
    )
    def test_default_path_matches_dense_oracle(self, model, size):
        c = _split_commutator(model, size)
        ref = np.max(np.abs(np.linalg.eigvalsh(1j * dense_oracle(c))))
        assert spectral_norm(c) == pytest.approx(ref, rel=1e-12)


def _real_sum(rng, n: int, nterms: int, symmetric: bool) -> PauliSum:
    """A sum with a real matrix: strings with an even Y count and real weights
    (symmetric), or an odd Y count and imaginary weights (antisymmetric)."""
    terms = {}
    for _ in range(50 * nterms):
        x, z = (int(m) for m in rng.integers(0, 1 << n, 2))
        if (x & z).bit_count() % 2 != symmetric and len(terms) < nterms:
            terms[(x, z)] = rng.standard_normal() * (1.0 if symmetric else 1j)
    return PauliSum(n, terms)


def _kind_sum(rng, n: int, kind: str) -> PauliSum:
    if kind == "symmetric":
        return _real_sum(rng, n, 8, symmetric=True)
    if kind == "antisymmetric":
        return _real_sum(rng, n, 8, symmetric=False)
    if kind == "nonnormal":
        return _real_sum(rng, n, 5, symmetric=True) + _real_sum(rng, n, 5, symmetric=False)
    return random_pauli_sum(rng, n, nterms=8)


class TestNormKinds:
    """The recurrence for each kind of matrix, against the dense oracle."""

    @pytest.mark.parametrize("kind", ["symmetric", "antisymmetric", "nonnormal", "complex"])
    @pytest.mark.parametrize("n", [5, 8])
    def test_matches_dense_oracle(self, kind, n, rng):
        h = _kind_sum(rng, n, kind)
        oracle = dense_oracle(h)
        assert (h._csr_dtype() is float) == (kind != "complex")
        if kind == "symmetric":
            assert np.array_equal(oracle, oracle.T)
        if kind == "antisymmetric":
            assert np.array_equal(oracle, -oracle.T)
        ref = float(np.linalg.norm(oracle, 2))
        assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)

    def test_complex_non_normal_builds_one_matrix(self, rng, monkeypatch):
        # the Gram proxy applies m^H as m.T to conjugated vectors, so the
        # matrix of h.dagger() is never built
        h = random_pauli_sum(rng, 7, nterms=8)
        assert h._csr_dtype() is complex
        assert not h.is_hermitian() and not (1j * h).is_hermitian()
        builds = []
        build_csr = PauliSum._build_csr

        def counted(self, dtype=complex):
            builds.append(dtype)
            return build_csr(self, dtype)

        monkeypatch.setattr(PauliSum, "_build_csr", counted)
        ref = float(np.linalg.norm(dense_oracle(h), 2))
        assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)
        assert builds == [complex]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_complex_skew_sum_runs_on_a_real_proxy(self, n, rng, monkeypatch):
        # imaginary weights on strings with an even Y count: a complex
        # matrix m of imaginary entries, whose proxy i m is real symmetric.
        # The recurrence multiplies the sum's own kept matrix and keeps the
        # negated imaginary part, in real arithmetic: a second norm builds
        # nothing, and no matrix of i*h is ever built.
        h = 1j * _real_sum(rng, n, 8, symmetric=True)
        assert h._csr_dtype() is complex and (1j * h)._csr_dtype() is float
        builds = []
        build_csr = PauliSum._build_csr

        def counted(self, dtype=complex):
            builds.append(dtype)
            return build_csr(self, dtype)

        monkeypatch.setattr(PauliSum, "_build_csr", counted)
        asked = []
        check = pauli._check_memory
        monkeypatch.setattr(pauli, "_check_memory", lambda need, what: asked.append((need, what)) or check(need, what))
        spectral_norm(PauliSum.from_pattern("XZ", 1j) + PauliSum.from_pattern("ZX", 1j))  # one-time caches
        builds.clear()
        ref = float(np.linalg.norm(dense_oracle(h), 2))
        asked.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert spectral_norm(h) == spectral_norm(h)
        assert builds == [complex] and h._matrix.dtype == complex
        # the guard counts the complex matrix it multiplies, its build and
        # complex vectors: m v is complex before its real part is kept
        need, what = asked[0]
        assert what == "Lanczos norm"
        assert need == h._matrix_bytes(complex) + h._build_scratch_bytes() + 5 * (16 << n)
        assert peak <= need

    def test_real_non_normal_two_by_two(self):
        h = PauliSum.from_pattern("X") + PauliSum.from_pattern("Y", 1j)
        assert h._csr_dtype() is float
        assert np.array_equal(dense_oracle(h), [[0, 2], [0, 0]])
        assert spectral_norm(h) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["symmetric", "antisymmetric", "nonnormal"])
    def test_exact_at_full_dimension(self, n, kind, rng, monkeypatch):
        h = _kind_sum(rng, n, kind)
        assert h._csr_dtype() is float
        ref = float(np.linalg.norm(dense_oracle(h), 2))
        monkeypatch.setattr(pauli, "_LANCZOS_MAX_ITER", 1 << n)
        assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)

    def test_real_commutator_peak_memory(self):
        # The 4x4 XY commutator: its real matrix, five real vectors, the
        # build's block of rows and 1 MiB, which the complex matrix alone exceeds.
        c = _split_commutator("xy2d_digital", (4, 4))
        assert c._csr_dtype() is float
        block = pauli._BLOCK_ENTRIES * 8
        bound = c._matrix_bytes(float) + 5 * (8 << c.n) + block + (1 << 20)
        assert c._matrix_bytes(complex) > bound
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert spectral_norm(c) == pytest.approx(126.80164143829568, rel=1e-12)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestStoredEntries:
    @pytest.mark.parametrize(
        ("model", "size", "stored", "upper"),
        [("xy2d_digital", (4, 4), 786_432, 3_145_728), ("heis_digital", 14, 159_744, 409_600)],
    )
    def test_commutator_matrix_stores_only_nonzero_entries(self, model, size, stored, upper):
        # the memory guard still counts one entry per row and X mask, and
        # one int32 row pointer per row and one more
        c = _split_commutator(model, size)
        assert len(c._layout().xs) << c.n == upper
        assert c._matrix_bytes(float) == upper * (8 + 4) + 4 * ((1 << c.n) + 1)
        m = c._build_csr(float)
        assert m.nnz == stored
        assert np.count_nonzero(m.data) == stored


class TestMemoryGuard:
    def test_forty_qubits_refused_before_allocating(self):
        h = PauliSum.from_pattern("XZ" * 20) + PauliSum.from_pattern("Y" * 40)
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match="GiB"):
                spectral_norm(h)
            with pytest.raises(DenseLimitError, match="GiB"):
                h._build_csr()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("method", ["apply", "expectation"])
    def test_wrong_state_shape_checked_before_the_matrix(self, method):
        # the 40-qubit matrix would be refused; a wrong-size state is a
        # ValueError first, and nothing is built or kept
        h = PauliSum.from_pattern("XZ" * 20) + PauliSum.from_pattern("Y" * 40)
        with pytest.raises(ValueError, match="amplitudes"):
            getattr(h, method)(np.ones(4, dtype=complex))
        assert h._matrix is None

    def test_product_refused_before_allocating(self):
        # 2^17 strings on 17 sites times themselves: 2^34 pairs of one mask
        # word, whose product table would take about 1.5 TiB
        h = PauliSum(17, {(x, 0): 1.0 for x in range(1 << 17)})
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match="GiB"):
                h @ h
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_commutator_refused_before_allocating(self):
        # 2^17 X strings against 2^17 Z strings: the 2^34-entry parity table
        # and its pair indices would take about 400 GiB
        xs = PauliSum(17, {(x, 0): 1.0 for x in range(1 << 17)})
        zs = PauliSum(17, {(0, z): 1.0 for z in range(1 << 17)})
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match="anticommuting pair table needs about 400 GiB"):
                commutator(xs, zs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [12, 40, 150, 190])
    def test_pair_kernel_counts_its_traced_peak(self, n):
        # 300 x 300 strings on one or three mask words, whose product keys
        # share their top word (12 and 150 sites: lexsort) or not (one
        # sort). The traced peak stays within what the guards count: 48 (W +
        # 1) B per summed pair, and for a commutator 25 B per pair of its
        # parity table. (A few kB of fixed overhead are not counted, so
        # small sums may pass their count.)
        rng = np.random.default_rng(n)
        masks = [[int.from_bytes(rng.bytes(24), "little") % (1 << n) for _ in range(2)] for _ in range(600)]
        a, b = (PauliSum(n, {(x, z): 1.0 for x, z in masks[k::2]}) for k in (0, 1))
        per_pair = 48 * (a._x.shape[1] + 1)
        odd = len(pauli._anticommuting_pairs(a, b)[0])
        for op, bound in ((operator.matmul, per_pair * len(a) * len(b)), (commutator, max(per_pair * odd, 25 * len(a) * len(b)))):
            op(a, b)  # numpy's one-time caches are not the kernel's
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                op(a, b)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_real_matrix_refused_at_its_real_size(self):
        # two X masks on 40 sites, both with real weights: 2^41 entries of
        # 8 B data and an 8 B index, where a complex matrix has 24 B each;
        # 2^40 row pointers of 8 B, and the norm's five 8 B Lanczos vectors
        h = PauliSum.from_pattern("XZ" * 20) + PauliSum.from_pattern("Y" * 40)
        assert h._csr_dtype() is float

        def gib(nbytes):
            return re.escape(f"needs about {nbytes / 2**30:.3g} GiB")

        entries = 2 << 40
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match=gib(16 * entries + (8 << 40) + 5 * (8 << 40))):
                spectral_norm(h)
            with pytest.raises(DenseLimitError, match=gib(16 * entries + (8 << 40))):
                h._build_csr(float)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("sectors", [False, True])
    @pytest.mark.parametrize("commuted", [False, True])
    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_first_norm_counts_the_build(self, n, commuted, sectors, monkeypatch):
        # A norm whose matrix is not yet built counts the build's scratch
        # beside the matrix and the Krylov vectors: the Heisenberg chain's
        # first norm traced 0.40 MB against 0.16 MB counted at n=10 without it.
        # Split by ∏Z sector, the same count bounds the build of both blocks
        # and their two recurrences at once, with their Ritz steps, for the
        # chain (real symmetric) and its DA Trotter commutator (antisymmetric).
        asked = []
        check = pauli._check_memory
        monkeypatch.setattr(pauli, "_check_memory", lambda need, what: asked.append((need, what)) or check(need, what))
        monkeypatch.setattr(pauli, "_SECTOR_ENTRIES", 0 if sectors else 1 << 63)
        monkeypatch.setattr(pauli, "_two_cpus", lambda: True)
        spectral_norm(_heis_layer(4, 0) + _heis_layer(4, 1))  # numpy's and scipy's one-time caches
        h = heis_da_commutator(n) if commuted else build_canonical(HamiltonianKind.H_HEIS, Lattice.chain(n))
        asked.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spectral_norm(h)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert asked[0][1] == "Lanczos norm"
        assert peak <= asked[0][0]

    def test_ritz_step_refused_before_allocating(self, monkeypatch):
        # physical memory reads 64 MiB; a 4096-step tridiagonal and its
        # eigenvectors would take 2 * 8 * 4096^2 B = 0.25 GiB, 500 steps 4 MB
        page, sysconf = os.sysconf("SC_PAGE_SIZE"), os.sysconf
        phys = (64 << 20) // page
        monkeypatch.setattr(os, "sysconf", lambda name: phys if name == "SC_PHYS_PAGES" else sysconf(name))
        alpha, beta = [1.0] * 4096, [0.5] * 4095
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match=re.escape("Lanczos Ritz step needs about 0.25 GiB")):
                pauli._top_ritz(alpha, beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        theta, _ = pauli._top_ritz(alpha[:500], beta[:499])  # eigenvalues 1 + cos(jπ/501)
        assert theta == pytest.approx(1 + math.cos(math.pi / 501), rel=1e-12)

    @pytest.fixture
    def limits(self, monkeypatch, tmp_path):
        """Physical memory reads 64 GiB, with no address-space limit, nothing mapped and no cgroup file, each patchable."""
        page, sysconf, getrlimit = os.sysconf("SC_PAGE_SIZE"), os.sysconf, resource.getrlimit
        monkeypatch.setattr(os, "sysconf", lambda name: (64 << 30) // page if name == "SC_PHYS_PAGES" else sysconf(name))
        unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
        monkeypatch.setattr(resource, "getrlimit", lambda which: unlimited if which == resource.RLIMIT_AS else getrlimit(which))
        monkeypatch.setattr(pauli, "_STATM", tmp_path / "no-such-statm")
        monkeypatch.setattr(pauli, "_CGROUP_FILES", (tmp_path / "no-such-file", tmp_path))
        pauli._cgroup_memory.cache_clear()
        yield monkeypatch
        pauli._cgroup_memory.cache_clear()

    def test_address_space_limit_refuses(self, limits):
        pauli._check_memory(63 << 30, "work")  # physical memory alone
        limits.setattr(resource, "getrlimit", lambda which: (1 << 30, resource.RLIM_INFINITY))
        with pytest.raises(DenseLimitError, match=re.escape("work needs about 2 GiB; the address-space limit, less what is mapped, is 1 GiB")):
            pauli._check_memory(2 << 30, "work")
        pauli._check_memory(1 << 30, "work")  # up to the limit

    def test_address_space_limit_less_the_mapped_space_refuses(self, limits, tmp_path):
        # statm's first field: the pages mapped now, which the limit already counts
        page = os.sysconf("SC_PAGE_SIZE")
        (tmp_path / "statm").write_text(f"{(256 << 20) // page} 1000 500 10 0 900 0\n")
        limits.setattr(pauli, "_STATM", tmp_path / "statm")
        limits.setattr(resource, "getrlimit", lambda which: (1 << 30, resource.RLIM_INFINITY))
        assert pauli._mapped_bytes() == 256 << 20
        with pytest.raises(DenseLimitError, match=re.escape("work needs about 0.8 GiB; the address-space limit, less what is mapped, is 0.75 GiB")):
            pauli._check_memory(int(0.8 * 2**30), "work")
        pauli._check_memory(768 << 20, "work")  # up to what the mapped space leaves
        (tmp_path / "statm").write_text("")  # unreadable: nothing subtracted
        assert pauli._mapped_bytes() == 0
        pauli._check_memory(1 << 30, "work")

    def test_cgroup_memory_max_refuses_and_is_read_once(self, limits, tmp_path):
        # the process's cgroup v2 path is the "0::" line; memory.max under it
        # holds bytes, or "max" for none; the least of the three limits wins
        (tmp_path / "cgroup").write_text("4:memory:/v1\n0::/crda.slice/run.scope\n")
        limit = tmp_path / "fs" / "crda.slice" / "run.scope" / "memory.max"
        limit.parent.mkdir(parents=True)
        limit.write_text("1073741824\n")
        limits.setattr(pauli, "_CGROUP_FILES", (tmp_path / "cgroup", tmp_path / "fs"))
        limits.setattr(resource, "getrlimit", lambda which: (3 << 30, resource.RLIM_INFINITY))
        with pytest.raises(DenseLimitError, match=re.escape("work needs about 2 GiB; the cgroup memory limit is 1 GiB")):
            pauli._check_memory(2 << 30, "work")
        limit.write_text("max\n")
        assert pauli._cgroup_memory() == 1 << 30  # read once per process
        pauli._cgroup_memory.cache_clear()
        assert pauli._cgroup_memory() is None
        pauli._check_memory(2 << 30, "work")


class TestWorkerParts:
    @pytest.mark.parametrize("raising", [(0,), (1,), (0, 1)])
    def test_an_error_is_the_serial_loops(self, raising):
        # a part raises on the caller's thread (0), on the worker's (1), or
        # on both: the call raises the serial loop's error, the first
        # part's, else the second's, and only once the second part is done
        done = []

        def part(k):
            if k == 1:
                time.sleep(0.05)  # the second part ends after the first
            done.append((k, threading.current_thread()))
            if k in raising:
                raise ValueError(f"part {k}")

        with pytest.raises(ValueError, match=f"^part {raising[0]}$"):
            for k in (0, 1):  # the serial loop
                part(k)
        done.clear()
        with worker_tasks("_THREAD_ENTRIES", True) as tasks:
            with pytest.raises(ValueError, match=f"^part {raising[0]}$"):
                pauli._at_once(part, [0, 1])
            assert tasks == [part]
            assert sorted(k for k, _ in done) == [0, 1]
            assert dict(done)[0] is threading.current_thread() is not dict(done)[1]


class TestPairKernel:
    def test_product_peak_memory_near_result_size(self):
        # 90,000 pair products of two 300-term, 40-site sums: the result
        # holds one x word, one z word and a complex weight per string, 2.9 MB;
        # the kernel's pair arrays peak below 16 MB. A result held as a dict
        # of Python ints and complex numbers takes about 19 MB on its own.
        rng = np.random.default_rng(300)

        def random_sum():
            xs, zs = rng.integers(0, 1 << 40, (2, 300))
            cs = rng.standard_normal(300) + 1j * rng.standard_normal(300)
            return PauliSum(40, {(int(x), int(z)): complex(c) for x, z, c in zip(xs, zs, cs)})

        a, b = random_sum(), random_sum()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = a @ b
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) > 89_000
        assert held - base <= 4 << 20
        assert peak - base <= 16 << 20


class TestCachedMatrix:
    def test_matrix_built_once_per_sum(self, rng, monkeypatch):
        builds = []
        build_csr = PauliSum._build_csr

        def counted(self, dtype=complex):
            builds.append((self.n, dtype))
            return build_csr(self, dtype)

        monkeypatch.setattr(PauliSum, "_build_csr", counted)
        n = 9
        h = _heis_layer(n, 0) + _heis_layer(n, 1)
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        first = h.apply(psi)
        cached = h._matrix
        for _ in range(3):
            assert np.array_equal(h.apply(psi), first)
            h.expectation(psi)
        assert builds == [(n, float)]  # kept at _csr_dtype()
        # the norm multiplies the kept matrix and builds none of its own
        assert spectral_norm(h) > 0.0
        assert builds == [(n, float)]
        assert h._matrix is cached
        assert np.allclose(first, dense_oracle(h) @ psi, rtol=0.0, atol=1e-12)

    def test_plan_made_once_per_sum(self, rng, monkeypatch):
        # One row-block plan per sum: the guards, the build and repeated
        # expectations read it, and its sign vectors are made once. A sum
        # made from it by any operation starts with no plan of its own.
        signs = []
        parity_signs = pauli._parity_signs
        monkeypatch.setattr(pauli, "_parity_signs", lambda idx, z: signs.append(len(z)) or parity_signs(idx, z))
        n = 8
        h = _heis_layer(n, 0) + PauliSum.from_sites(n, {2: "Y", 5: "Z"}, 0.5 - 0.25j)
        assert h._plan is None
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        h._expectation_bytes()
        plan = h._plan
        assert plan.hi is None and signs == []  # the guards read only the integer layout
        first = h.apply(psi)
        made = list(signs)
        assert len(made) == 1 + len(plan.keys)  # the hi signs, and the key signs of each X mask
        values = [h.expectation(psi) for _ in range(3)]
        assert spectral_norm(h) > 0.0
        assert signs == made
        assert h._plan.xs is plan.xs and h._plan.hi is not None
        assert np.array_equal(h.apply(psi), first) and len(set(values)) == 1
        for made_from in (
            h + h,
            h * 2.0,
            toggle(h, GateLayer(GateLayerKind.HADAMARD)),
            pauli._from_sorted(n, h._x, h._z, h._c),
        ):
            assert made_from._plan is None and made_from._matrix is None

    def test_matrix_paths_stay_complex(self):
        h = _heis_layer(6, 0) + _heis_layer(6, 1)
        assert h._csr_dtype() is float
        psi = np.zeros(1 << 6)
        psi[5] = 1.0
        assert h.to_sparse().dtype == np.complex128
        assert h.to_dense().dtype == np.complex128
        assert h.apply(psi).dtype == np.complex128
        assert h._matrix.dtype == np.float64  # the kept matrix is real; what apply returns is not
        assert h._matrix.format == "csr"

    def test_z_sum_expectation_builds_nothing(self, rng, monkeypatch):
        n = 8
        states = [
            rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n),
            np.full(1 << n, complex(-0.0, -0.0)),
        ]
        sums = [
            PauliSum.from_sites(n, {2: "Z"}),
            PauliSum.from_pattern("Z" * n, -0.5) + PauliSum.from_sites(n, {0: "Z", 7: "Z"}, 1.5),
            PauliSum.from_sites(n, {1: "Z"}, 0.5j),  # a complex diagonal builds nothing either
        ]
        # the kept matrix's matvec bits, -0.0 included
        want = [
            pauli._vdot(psi, reference_csr(h) @ psi)
            for psi in states
            for h in sums
        ]
        built = []
        build = PauliSum._build_csr
        monkeypatch.setattr(PauliSum, "_build_csr", lambda h, dtype: built.append(h) or build(h, dtype))
        got = [h.expectation(psi) for psi in states for h in sums]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in want]
        assert built == []
        assert all(h._matrix is None for h in sums)

    def test_expectation_builds_and_reads_no_matrix(self, rng, monkeypatch):
        # Sums with X parts, real and complex matrix weights: an expectation
        # gathers the state per X mask with the bits of apply's matvec, and
        # a kept matrix is not read (a zero matrix stands in for it here),
        # whether it takes the rows in one block or in several.
        n = 7
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        sums = [
            PauliSum.from_sites(n, {0: "X", 1: "X"}),
            PauliSum.from_sites(n, {0: "X", 1: "Y"}, 0.7),
            _heis_layer(n, 0) + PauliSum.from_sites(n, {2: "Y", 5: "Z"}, 0.5 - 0.25j),
        ]
        want = [pauli._vdot(psi, h.apply(psi)) for h in sums]
        for h in sums:
            h._matrix = h._matrix * 0.0
        monkeypatch.setattr(PauliSum, "_build_csr", None)
        for entries in (pauli._BLOCK_ENTRIES, 1 << 4):  # one block, or 16 of 8 rows
            monkeypatch.setattr(pauli, "_BLOCK_ENTRIES", entries)
            for h in sums:
                h._plan = None  # a plan is laid out at the block size it is made with
            got = [h.expectation(psi) for h in sums]
            assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in want]

    def test_z_strings_keep_only_their_diagonal(self):
        # one entry per nonzero row, on the diagonal; Z0 + Z0 Z5 is zero on
        # the rows with bit 5 set
        n = 12
        rows = np.arange(1 << n)
        for h, nonzero in (
            (PauliSum.from_sites(n, {3: "Z"}), rows >= 0),
            (PauliSum.from_sites(n, {0: "Z"}) + PauliSum.from_sites(n, {0: "Z", 5: "Z"}, 0.5j), rows >= 0),
            (PauliSum.from_sites(n, {0: "Z"}) + PauliSum.from_sites(n, {0: "Z", 5: "Z"}), (rows >> 5) & 1 == 0),
        ):
            psi = np.ones(1 << n, dtype=complex)
            assert h.apply(psi).dtype == np.complex128
            m = h._matrix
            assert m.format == "csr" and m.dtype == np.dtype(h._csr_dtype())
            assert np.array_equal(np.diff(m.indptr), nonzero)
            assert np.array_equal(m.indices, rows[nonzero])
            assert np.count_nonzero(m.data) == m.nnz


class TestExpm:
    def test_zero_hamiltonian(self):
        u = expm_hermitian(PauliSum(2), 1.7)
        assert np.allclose(u, np.eye(4))

    def test_z_quarter_period(self):
        u = expm_hermitian(PauliSum.from_pattern("Z"), np.pi / 2)
        assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]))

    def test_involutory_generator_series(self):
        t = 0.8321
        u = expm_hermitian(PauliSum.from_pattern("XZ"), t)
        ref = np.cos(t) * np.eye(4) - 1j * np.sin(t) * kron_pattern("XZ")
        assert np.allclose(u, ref, atol=1e-12)

    def test_additive_in_time(self, rng):
        h = random_pauli_sum(rng, 3, real=True)
        u = expm_hermitian(h, 0.3) @ expm_hermitian(h, 0.9)
        assert np.allclose(u, expm_hermitian(h, 1.2), atol=1e-10)

    def test_unitarity(self, rng):
        h = random_pauli_sum(rng, 4, real=True)
        u = expm_hermitian(h, 2.1)
        assert np.linalg.norm(u @ u.conj().T - np.eye(16)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian(PauliSum.from_pattern("X", 1j), 1.0)

    def test_real_sum_takes_the_real_eigensolve(self, rng):
        # strings with an even Y count and real weights have a real matrix
        h = PauliSum.from_pattern("YYXZ", 0.7)
        for _ in range(6):
            h = h + PauliSum.from_pattern("".join(rng.choice(list("IXZ"), 4)), rng.standard_normal())
        assert h._csr_dtype() is float
        assert h._build_csr(h._csr_dtype()).toarray().dtype == np.float64
        u = expm_hermitian(h, 1.3)
        assert u.dtype == np.complex128
        assert np.linalg.norm(u @ u.conj().T - np.eye(16), 2) <= 1e-12
        assert np.abs(u - pauli._expm_eigh(h.to_dense(), 1.3)).max() <= 1e-12


class TestPauliSumInvariants:
    def test_prunes_tiny_coefficients(self):
        h = PauliSum.from_pattern("X", 1.0) + PauliSum.from_pattern("X", -1.0)
        assert h.is_zero()
        assert (PauliSum.from_pattern("Z", 1e-16)).is_zero()

    def test_canonical_merge(self):
        h = PauliSum.from_pattern("XY", 1.0) + PauliSum.from_pattern("XY", 0.5j)
        assert h.num_terms() == 1
        assert coefficient(h, "XY") == 1.0 + 0.5j

    def test_hermiticity_is_real_coefficients(self):
        assert PauliSum.from_pattern("XZ", 0.7).is_hermitian()
        assert not PauliSum.from_pattern("XZ", 0.7j).is_hermitian()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PauliSum.from_pattern("X", np.nan)
        for bad in (np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, -np.inf)):
            for build in (lambda: PauliSum.from_pattern("X", bad), lambda: PauliSum(1, {(1, 0): bad})):
                with pytest.raises(ValueError, match="coefficient must be finite"):
                    build()

    def test_rejects_masks_outside_site_range(self):
        for key in ((8, 0), (0, 4), (-1, 0), (0, -2)):
            with pytest.raises(ValueError, match="outside the registered site range"):
                PauliSum(2, {key: 1.0})

    def test_sums_on_other_site_counts_or_other_types_differ(self):
        a, b = PauliSum.from_pattern("XI"), PauliSum.from_pattern("XII")
        assert a != b and not a.allclose(b) and not b.allclose(a)
        assert PauliSum(2) != PauliSum(3) and not PauliSum(2).allclose(PauliSum(3))
        assert a.__eq__("XI") is NotImplemented and a != "XI"

    def test_fold_plan_refuses_a_sum_on_another_site_count(self):
        with pytest.raises(ValueError, match=re.escape("site count mismatch: 3 != 2")):
            pauli._FoldPlan(3, [PauliSum(3), PauliSum.from_pattern("XY")])
        with pytest.raises(ValueError, match=re.escape("site count mismatch: 3 != 2")):
            TimeDependentHamiltonian(3, ((PauliSum.from_pattern("XY"), ()),)).at(0.0)

    def test_dagger_conjugates(self):
        h = PauliSum.from_pattern("XY", 1 + 2j)
        assert coefficient(h.dagger(), "XY") == 1 - 2j

    def test_equal_sums_hash_equal(self, rng):
        rows = terms(random_pauli_sum(rng, 4, nterms=8))
        a = reference_from_terms(4, rows)
        b = reference_from_terms(4, rows[::-1])
        c = reference_from_terms(4, rows[1:] + rows[:1])
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        made = {(0.2, a): "a"}
        assert made[(0.2, b)] == "a"
        assert (0.3, b) not in made
        assert (0.2, a + PauliSum.from_pattern("ZZZZ", 0.5)) not in made

    def test_time_dependent_hamiltonians_hash_equal(self):
        def build():
            zz = PauliSum.from_pattern("ZZI", 0.5) + PauliSum.from_pattern("IZZ", 0.5)
            x = PauliSum.from_pattern("XII") + PauliSum.from_pattern("IIX")
            return TimeDependentHamiltonian(3, ((zz, ()), (x, (("cos", 2.0, 0.1),))))

        a, b = build(), build()
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {(0.2, a): 1}[(0.2, b)] == 1


class TestLetterCodec:
    def test_bad_letter_is_a_value_error(self):
        builds = (
            lambda: PauliSum.from_pattern("XQ"),
            lambda: PauliSum.from_sites(2, {0: "Q"}),
            lambda: PauliSum.from_sites(2, {1: "X", 0: "x"}),
        )
        for build in builds:
            with pytest.raises(ValueError, match="^invalid Pauli letter '[Qx]'$"):
                build()

    def test_site_range_checked_before_letters(self):
        with pytest.raises(ValueError, match=re.escape("site 5 outside range 0..1")):
            PauliSum.from_sites(2, {0: "Q", 5: "X"})

    def test_one_string_builders_read_back(self):
        for pattern in ("X", "IYZ", "ZIXY"):
            assert _one_string(PauliSum.from_pattern(pattern, 0.5j)) == (pattern, 0.5j)
        assert _one_string(PauliSum.from_sites(4, {3: "Y", 0: "X"}, -2.0)) == ("XIIY", -2.0)
        for build in (lambda: PauliSum.from_pattern(""), lambda: PauliSum.from_sites(0, {})):
            with pytest.raises(ValueError, match="need at least one site"):
                build()


class TestJson:
    def test_patterns_sorted(self, rng):
        d = random_pauli_sum(rng, 3, nterms=8).to_json_dict()
        patterns = [row["p"] for row in d["terms"]]
        assert patterns == sorted(patterns)

    def test_schema_fields(self):
        d = PauliSum.from_pattern("XZ", 0.25).to_json_dict()
        assert d == {"n": 2, "terms": [{"p": "XZ", "re": 0.25, "im": 0.0}]}
