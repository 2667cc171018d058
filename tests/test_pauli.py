"""Pauli-string algebra: products, commutators, norms, exponentials."""

import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import dense_oracle, kron_pattern, random_pauli_sum
from crda import pauli
from crda.device import Lattice
from crda.errors import heisenberg_da_commutator_sum, xy2d_digital_hamiltonians
from crda.hamiltonians import HamiltonianKind, TimeDependentHamiltonian, build_canonical
from crda.pauli import (
    ConvergenceError,
    DenseLimitError,
    PauliSum,
    PauliTerm,
    anticommutes,
    commutator,
    expm_hermitian,
    multiply,
    spectral_norm,
)


class TestTermProduct:
    def test_xy_gives_iz(self):
        p = multiply(PauliTerm.from_pattern("XI"), PauliTerm.from_pattern("YI"))
        assert p.pattern == "ZI"
        assert p.coeff == 1j

    def test_xx_times_zz_gives_minus_yy(self):
        p = multiply(PauliTerm.from_pattern("XX"), PauliTerm.from_pattern("ZZ"))
        assert p.pattern == "YY"
        assert p.coeff == -1

    def test_identity_absorbs_coefficient(self):
        for pat in ("XZ", "YY", "IZ"):
            p = multiply(PauliTerm.from_pattern("II"), PauliTerm.from_pattern(pat, 2.5j))
            assert p.pattern == pat
            assert p.coeff == 2.5j

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multiply(PauliTerm.from_pattern("X"), PauliTerm.from_pattern("XX"))

    def test_random_products_match_dense(self, rng):
        for n in (1, 2, 4):
            for _ in range(20):
                a = "".join("IXYZ"[i] for i in rng.integers(0, 4, n))
                b = "".join("IXYZ"[i] for i in rng.integers(0, 4, n))
                p = multiply(PauliTerm.from_pattern(a), PauliTerm.from_pattern(b))
                ref = kron_pattern(a) @ kron_pattern(b)
                assert np.allclose(p.coeff * kron_pattern(p.pattern), ref)


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

    def test_anticommutes_predicate(self):
        assert anticommutes(PauliTerm.from_pattern("XY"), PauliTerm.from_pattern("YY"))
        assert not anticommutes(PauliTerm.from_pattern("XX"), PauliTerm.from_pattern("YY"))


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
            h = PauliSum.identity(n)
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
            assert PauliSum.zero(n).frobenius_norm(normalized) == 0.0

    @pytest.mark.parametrize(
        "h, normalized",
        [
            (PauliSum.from_pattern("XX", 1e160), True),  # its square overflows
            (PauliSum.from_pattern("XI", 1e154) + PauliSum.from_pattern("IX", 1e154), True),  # their sum does
            (PauliSum.identity(2048), False),  # the scale does
        ],
    )
    def test_overflow_raises(self, h, normalized):
        with pytest.raises(ValueError, match="overflows float64"):
            h.frobenius_norm(normalized)

    def test_finite_norms_keep_their_bits(self, rng):
        # each weight squared by ** and summed left to right, as a loop would
        h = random_pauli_sum(rng, 5, nterms=20) + PauliSum.from_pattern("XXIII", 1.3e154)
        total = 0.0
        for t in h.terms():
            total += abs(t.coeff) ** 2
        assert h.frobenius_norm() == float(np.sqrt(total))
        assert h.frobenius_norm(False) == float(np.sqrt(total) * 2 ** 2.5)
        assert PauliSum.identity(2046).frobenius_norm(False) == 2.0**1023


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

    def test_nonconvergence_is_distinct_error(self, rng):
        h = random_pauli_sum(rng, 5, nterms=10, real=True)
        with pytest.raises(ConvergenceError):
            spectral_norm(h, max_iter=1)

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
    def test_exact_at_full_dimension(self, n, kind, rng):
        # the recurrence ends at step 2^n, where its Ritz values are exact
        h = random_pauli_sum(rng, n, real=kind != "complex")
        if kind == "antihermitian":
            h = 1j * h
        assert len(h) > 1
        ref = float(np.linalg.norm(dense_oracle(h), 2))
        assert spectral_norm(h, max_iter=1 << n) == pytest.approx(ref, rel=1e-12)

    def test_zero_operator(self):
        assert spectral_norm(PauliSum.zero(3)) == 0.0

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

    def test_largest_finite_trotter_norm(self):
        # weights of 2e152 keep the squares finite: the norm is 4√3 j² for j = 1e76
        h = heisenberg_da_commutator_sum(4, 1e76)
        assert spectral_norm(h) == pytest.approx(4 * np.sqrt(3) * 1e152, rel=1e-12)


def _no_csr(*args, **kwargs):
    raise AssertionError("a sum of Z strings built a CSR matrix")


class TestDiagonalNorm:
    """A sum of Z strings: the largest |entry| of its diagonal, with no CSR build or Lanczos."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_zz_chain_norm_is_its_bond_count(self, n, monkeypatch):
        monkeypatch.setattr(PauliSum, "_build_csr", _no_csr)
        for boundary in ("open", "periodic"):
            lat = Lattice.chain(n, boundary)
            # every bond is +1 on the all-zeros basis state
            bonds = len(list(lat.bonds()))
            assert spectral_norm(build_canonical(HamiltonianKind.H_ZZ, lat)) == float(bonds)

    def test_memory_guard_counts_one_weight_per_row(self, monkeypatch):
        asked = []
        monkeypatch.setattr(pauli, "_check_memory", lambda need, what: asked.append((need, what)))
        h = build_canonical(HamiltonianKind.H_ZZ, Lattice.chain(20))
        assert spectral_norm(h) == 19.0
        assert asked == [(8 << 20, "diagonal norm")]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_dense_oracle(self, n, rng, monkeypatch):
        monkeypatch.setattr(PauliSum, "_build_csr", _no_csr)
        for real in (True, False):
            terms = [
                PauliTerm.from_pattern(
                    "".join("IZ"[b] for b in rng.integers(0, 2, n)),
                    rng.standard_normal() + (0.0 if real else 1j * rng.standard_normal()),
                )
                for _ in range(6)
            ]
            h = PauliSum.from_terms(terms)
            ref = float(np.linalg.norm(dense_oracle(h), 2))
            assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)


def _heis_layer(n: int, first: int) -> PauliSum:
    """Heisenberg bonds (k, k+1) for k = first, first + 2, ... (0-based)."""
    return PauliSum.from_terms(
        [PauliTerm.from_sites(n, {k: p, k + 1: p}) for k in range(first, n - 1, 2) for p in "XYZ"]
    )


def _split_commutator(model: str, size) -> PauliSum:
    if model == "heis_digital":
        return commutator(_heis_layer(size, 0), _heis_layer(size, 1))
    if model == "heis_da":
        return heisenberg_da_commutator_sum(size, 1.0)
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
            assert h.frobenius_norm() - 1e-9 <= s <= sum(abs(t.coeff) for t in h.terms()) + 1e-9
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
        # matrix, whose proxy i*h has a real symmetric one
        h = 1j * _real_sum(rng, n, 8, symmetric=True)
        assert h._csr_dtype() is complex and (1j * h)._csr_dtype() is float
        builds = []
        build_csr = PauliSum._build_csr

        def counted(self, dtype=complex):
            builds.append(dtype)
            return build_csr(self, dtype)

        monkeypatch.setattr(PauliSum, "_build_csr", counted)
        ref = float(np.linalg.norm(dense_oracle(h), 2))
        assert spectral_norm(h) == pytest.approx(ref, rel=1e-12)
        assert builds == [float]

    def test_real_non_normal_two_by_two(self):
        h = PauliSum.from_pattern("X") + PauliSum.from_pattern("Y", 1j)
        assert h._csr_dtype() is float
        assert np.array_equal(dense_oracle(h), [[0, 2], [0, 0]])
        assert spectral_norm(h) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["symmetric", "antisymmetric", "nonnormal"])
    def test_exact_at_full_dimension(self, n, kind, rng):
        h = _kind_sum(rng, n, kind)
        assert h._csr_dtype() is float
        ref = float(np.linalg.norm(dense_oracle(h), 2))
        assert spectral_norm(h, max_iter=1 << n) == pytest.approx(ref, rel=1e-12)

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
        assert c._num_x_masks() << c.n == upper
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

    def test_z_strings_keep_only_their_diagonal(self, monkeypatch):
        monkeypatch.setattr(PauliSum, "_build_csr", None)  # no CSR build
        n = 12
        for h in (PauliSum.from_sites(n, {3: "Z"}), PauliSum.from_sites(n, {0: "Z", 5: "Z"}, 0.5j)):
            psi = np.ones(1 << n, dtype=complex)
            assert h.apply(psi).dtype == np.complex128
            m = h._matrix
            assert m.format == "dia" and m.data.shape == (1, 1 << n)
            assert m.dtype == np.dtype(h._csr_dtype())
            assert h._operator_bytes() == m.data.nbytes


class TestExpm:
    def test_zero_hamiltonian(self):
        u = expm_hermitian(PauliSum.zero(2), 1.7)
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


class TestPauliSumInvariants:
    def test_prunes_tiny_coefficients(self):
        h = PauliSum.from_pattern("X", 1.0) + PauliSum.from_pattern("X", -1.0)
        assert h.is_zero()
        assert (PauliSum.from_pattern("Z", 1e-16)).is_zero()

    def test_canonical_merge(self):
        h = PauliSum.from_terms(
            [PauliTerm.from_pattern("XY", 1.0), PauliTerm.from_pattern("XY", 0.5j)]
        )
        assert h.num_terms() == 1
        assert h.coefficient("XY") == 1.0 + 0.5j

    def test_hermiticity_is_real_coefficients(self):
        assert PauliSum.from_pattern("XZ", 0.7).is_hermitian()
        assert not PauliSum.from_pattern("XZ", 0.7j).is_hermitian()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PauliSum.from_pattern("X", np.nan)
        for bad in (np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, -np.inf)):
            with pytest.raises(ValueError):
                PauliTerm(1, 1, 0, bad)
            with pytest.raises(ValueError):
                PauliSum(1, {(1, 0): bad})

    def test_rejects_masks_outside_site_range(self):
        for key in ((8, 0), (0, 4), (-1, 0), (0, -2)):
            with pytest.raises(ValueError, match="outside the registered site range"):
                PauliSum(2, {key: 1.0})

    def test_pattern_length_must_match_n(self):
        with pytest.raises(ValueError):
            PauliTerm(2, 0b100, 0, 1.0)

    def test_dagger_conjugates(self):
        h = PauliSum.from_pattern("XY", 1 + 2j)
        assert h.dagger().coefficient("XY") == 1 - 2j

    def test_equal_sums_hash_equal(self, rng):
        terms = random_pauli_sum(rng, 4, nterms=8).terms()
        a = PauliSum.from_terms(terms)
        b = PauliSum.from_terms(terms[::-1])
        c = PauliSum.from_terms(terms[1:] + terms[:1])
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
            lambda: PauliTerm.from_pattern("XQ"),
            lambda: PauliSum.from_pattern("XQ"),
            lambda: PauliTerm.from_sites(2, {0: "Q"}),
            lambda: PauliSum.from_sites(2, {0: "Q"}),
            lambda: PauliSum.from_sites(2, {1: "X", 0: "x"}),
        )
        for build in builds:
            with pytest.raises(ValueError, match="^invalid Pauli letter '[Qx]'$"):
                build()

    def test_site_range_checked_before_letters(self):
        with pytest.raises(ValueError, match=re.escape("site 5 outside range 0..1")):
            PauliTerm.from_sites(2, {0: "Q", 5: "X"})


class TestJson:
    def test_patterns_sorted(self, rng):
        d = random_pauli_sum(rng, 3, nterms=8).to_json_dict()
        patterns = [row["p"] for row in d["terms"]]
        assert patterns == sorted(patterns)

    def test_schema_fields(self):
        d = PauliSum.from_pattern("XZ", 0.25).to_json_dict()
        assert d == {"n": 2, "terms": [{"p": "XZ", "re": 0.25, "im": 0.0}]}
