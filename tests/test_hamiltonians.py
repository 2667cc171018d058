"""Hamiltonian families: term content, decompositions, and defect forms."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    REFERENCE_CELLS,
    Term,
    coefficient,
    dense_oracle,
    reference_canonical,
    reference_from_terms,
    reference_qf_effective,
    reference_tiling,
    reference_translate_2d,
    term_bits,
    terms,
)
from crda.device import DeviceParams, DriveConfig, Lattice
from crda.errors import xy2d_digital_hamiltonians
from crda.hamiltonians import (
    _BONDS,
    _PHASE_CHAINS,
    HamiltonianKind as K,
    build_canonical,
    build_delta,
    build_lab_frame,
    build_org,
    build_qf_effective,
    delta_hamiltonian,
    lab_frame_hamiltonian,
    rotating_frame_hamiltonian,
    translate_2d,
)
from crda.pauli import PauliSum, commutator


def chain(n, boundary="open"):
    return Lattice.chain(n, boundary)


def random_device(rng, n, drive):
    """A device for a drive layout, which the layout may refuse.

    g and Omega are random or exactly zero per bond and site (a qubit with
    Omega = 0 is undriven, a control among them), a detuning is sometimes
    exactly zero, and each phase is 0, +-pi/2 or random. A sublattice
    layout's targets are mostly made undriven at zero detuning.
    """
    omega_q = rng.uniform(5.0, 10.0, n)
    delta = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(-3.0, 3.0, n))
    Omega = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-2.0, 2.0, n))
    g = np.where(rng.random(n - 1) < 0.2, 0.0, rng.uniform(-1.0, 1.0, n - 1))
    special = rng.choice([0.0, math.pi / 2, -math.pi / 2], n)
    phi = np.where(rng.random(n) < 0.5, special, rng.uniform(-math.pi, math.pi, n))
    if drive is not DriveConfig.ALL and rng.random() < 0.8:
        target = np.arange(n) % 2 == int(drive is DriveConfig.ODD)  # 0-based parity
        Omega[target], delta[target] = 0.0, 0.0
    return DeviceParams(n=n, omega_q=omega_q, omega=omega_q - delta, Omega=Omega, phi=phi, g=g)


class TestLabFrame:
    def test_two_qubits_at_t0(self):
        p = DeviceParams(
            n=2,
            omega_q=[50.0, 40.0],
            omega=[40.0, 40.0],
            Omega=[0.5, 0.3],
            phi=[0.0, 0.0],
            g=[0.2],
        )
        h = build_lab_frame(p, 0.0)
        want = (
            PauliSum.from_sites(2, {0: "Z"}, 25.0)
            + PauliSum.from_sites(2, {1: "Z"}, 20.0)
            + PauliSum.from_sites(2, {0: "X"}, 0.5)
            + PauliSum.from_sites(2, {1: "X"}, 0.3)
            + PauliSum.from_sites(2, {0: "X", 1: "X"}, 0.1)
        )
        assert h.allclose(want)

    def test_undriven_uncoupled_is_pure_splitting(self):
        p = DeviceParams(
            n=3,
            omega_q=[5.0, 6.0, 7.0],
            omega=np.zeros(3),
            Omega=np.zeros(3),
            phi=np.zeros(3),
            g=np.zeros(2),
        )
        h = build_lab_frame(p, 1.23)
        assert h.num_terms() == 3
        for k, w in enumerate((5.0, 6.0, 7.0)):
            assert coefficient(h, "I" * k + "Z" + "I" * (2 - k)) == 0.5 * w

    def test_commensurate_periodicity(self):
        p = DeviceParams.uniform_chain(2, g=0.2, delta=1.0, Omega=0.5)
        p = replace(p, omega_q=np.full(2, 5.0), omega=np.full(2, 4.0))
        gen = lab_frame_hamiltonian(p)
        t = 0.713
        assert gen.at(t).allclose(gen.at(t + 2 * np.pi / 4.0))

    @staticmethod
    def _one_at_a_time(n, terms):
        out = PauliSum(n)
        for sites, c in terms:
            out = out + PauliSum.from_sites(n, sites, c)
        return out

    def test_static_sums_equal_one_at_a_time_sums(self, rng):
        # one build over distinct keys is bit for bit the sum built by +
        n = 5
        v = lambda size: rng.standard_normal(size) * (rng.uniform(size=size) < 0.7)  # noqa: E731
        p = DeviceParams(n=n, omega_q=v(n), omega=v(n), Omega=v(n), phi=v(n), g=v(n - 1))
        lab = [({k: "Z"}, 0.5 * p.omega_q[k]) for k in range(n) if p.omega_q[k] != 0.0]
        lab += [({k: "X", k + 1: "X"}, 0.5 * p.g[k]) for k in range(n - 1) if p.g[k] != 0.0]
        rot = [
            ({k: letter}, 0.5 * w[k])
            for k in range(n)
            for letter, w in (("Z", p.delta), ("X", p.Omega))
            if w[k] != 0.0
        ]
        want = [self._one_at_a_time(n, lab), self._one_at_a_time(n, rot)]
        for k in range(n - 1):
            if p.g[k] != 0.0:
                w = 0.25 * p.g[k]
                xx, yy = PauliSum.from_sites(n, {k: "X", k + 1: "X"}, w), PauliSum.from_sites(
                    n, {k: "Y", k + 1: "Y"}, w
                )
                xy, yx = PauliSum.from_sites(n, {k: "X", k + 1: "Y"}, w), PauliSum.from_sites(
                    n, {k: "Y", k + 1: "X"}, w
                )
                want += [xx + yy, xy - yx]
        lab_static = lab_frame_hamiltonian(p).pieces[0][0]
        got = [lab_static] + [ps for ps, _ in rotating_frame_hamiltonian(p).pieces]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == b
            assert a._c.tobytes() == b._c.tobytes()

    def test_generator_hermitian(self, rng):
        p = DeviceParams.uniform_chain(3, g=0.3, delta=2.0, Omega=0.7)
        p = replace(p, omega_q=np.full(3, 11.0), omega=np.full(3, 9.0))
        for gen in (lab_frame_hamiltonian(p), rotating_frame_hamiltonian(p)):
            for t in rng.uniform(0, 10, 5):
                assert gen.at(float(t)).is_hermitian()


class TestQfEffective:
    def test_two_qubit_uniform_phase(self):
        p = DeviceParams.uniform_chain(2, g=1.0, delta=10.0, Omega=0.4)
        h = build_qf_effective(p, DriveConfig.ALL)
        assert h.allclose(PauliSum.from_sites(2, {0: "X", 1: "Z"}, -0.01))

    def test_odd_driven_chain(self):
        omega_q = np.array([50.0, 40.0, 30.0, 20.0])
        p = DeviceParams.cr_chain(omega_q, g=1.0, Omega=4.0, drive=DriveConfig.ODD)
        h = build_qf_effective(p, DriveConfig.ODD)
        j = 1.0 * 4.0 / (4.0 * 10.0)  # positive for undriven targets
        want = PauliSum.from_sites(4, {0: "X", 1: "X"}, j) + PauliSum.from_sites(
            4, {2: "X", 3: "X"}, j
        )
        assert h.allclose(want)

    def test_quarter_phase_offset_gives_xy(self):
        n = 4
        p = DeviceParams(
            n=n,
            omega_q=np.full(n, 10.0),
            omega=np.zeros(n),
            Omega=np.full(n, 0.4),
            phi=np.array([k * (-np.pi / 2) for k in range(n)]),
            g=np.ones(n - 1),
        )
        h = build_qf_effective(p, DriveConfig.ALL)
        coeff = 1.0 * 0.4 / (4.0 * 10.0)
        for k in range(n - 1):
            assert np.isclose(coefficient(h, "I" * k + "XY" + "I" * (n - k - 2)).real, coeff)

    def test_driven_target_rejected_for_sublattice_drive(self):
        p = DeviceParams.uniform_chain(4, g=1.0, delta=10.0, Omega=0.4)
        with pytest.raises(ValueError):
            build_qf_effective(p, DriveConfig.ODD)

    @pytest.mark.parametrize("drive", list(DriveConfig))
    def test_equals_reference_bond_rows(self, drive):
        """Bit for bit, or the same refusal, on generated devices of 2 to 9 qubits."""
        rng = np.random.default_rng(2024 + len(drive.value))
        seen = set()
        for n in range(2, 10):
            for _ in range(80):
                p = random_device(rng, n, drive)
                try:
                    want = reference_qf_effective(p, drive)
                except (ValueError, ZeroDivisionError) as refusal:
                    with pytest.raises(Exception) as got:
                        build_qf_effective(p, drive)
                    assert (type(got.value), str(got.value)) == (type(refusal), str(refusal))
                    seen.add(re.sub(r"\d+", "k", str(refusal)))
                    continue
                got = build_qf_effective(p, drive)
                assert term_bits(got) == term_bits(want)
                pairs = zip((got._x, got._z, got._c), (want._x, want._z, want._c))
                assert all(np.array_equal(a, b) for a, b in pairs)
                seen.add("empty" if got.is_zero() else "built")
        refusals = {"zero detuning on driven qubit k"}
        if drive is not DriveConfig.ALL:
            refusals |= {
                "qubit k is driven but assigned a target role",
                "target qubit k must be undriven with zero detuning",
            }
        assert seen == {"empty", "built"} | refusals


class TestCanonicalChains:
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_refused(self, phi):
        for kind in _PHASE_CHAINS:
            for lat in (chain(1), chain(3, "periodic"), chain(4)):
                with pytest.raises(ValueError, match="phi must be finite"):
                    build_canonical(kind, lat, 0.7, phi)

    def test_h_even_reference(self):
        h = build_canonical(K.H_EVEN, chain(4), 1.0)
        want = (
            PauliSum.from_pattern("XXII")
            + PauliSum.from_pattern("IIXX")
            + PauliSum.from_pattern("IZZI")
        )
        assert h == want

    def test_heisenberg_three_sites(self):
        h = build_canonical(K.H_HEIS, chain(3), 1.0)
        assert h.num_terms() == 6
        for pat in ("XXI", "YYI", "ZZI", "IXX", "IYY", "IZZ"):
            assert coefficient(h, pat) == 1.0

    def test_boundary_wrap(self):
        open_zz = build_canonical(K.H_ZZ, chain(4), 1.0)
        ring_zz = build_canonical(K.H_ZZ, chain(4, "periodic"), 1.0)
        assert open_zz.num_terms() == 3
        assert ring_zz.num_terms() == 4
        assert coefficient(ring_zz, "ZIIZ") == 1.0

    def test_odd_length_floor_limits(self):
        h = build_canonical(K.QF_EFFECTIVE_ODD, chain(5), 1.0)
        assert {t.pattern for t in terms(h)} == {"XXIII", "IIXXI"}
        h = build_canonical(K.QF_EFFECTIVE_EVEN, chain(5), 1.0)
        assert {t.pattern for t in terms(h)} == {"IXXII", "IIIXX"}

    def test_control_phase_branches(self):
        h = build_canonical(K.CONTROL, chain(2), 2.0, phi=np.pi / 2)
        assert h.allclose(PauliSum.from_pattern("XY", -2.0))

    def test_decompositions_exact(self):
        for n in (4, 5, 7):
            lat = chain(n)
            assert build_canonical(K.H_ZZ, lat) == build_canonical(
                K.H1, lat
            ) + build_canonical(K.H2, lat)
            assert build_canonical(K.H_XY_1D, lat) == build_canonical(
                K.H_EVEN_PRIME, lat
            ) + build_canonical(K.H_ODD_PRIME, lat)
            assert build_canonical(K.H_HEIS, lat) == (
                build_canonical(K.H_E, lat)
                + build_canonical(K.H_E_PRIME, lat)
                + build_canonical(K.H_E_DOUBLE_PRIME, lat)
            )

    def test_all_canonical_kinds_hermitian(self):
        kinds_1d = (
            K.CONTROL,
            K.QF_EFFECTIVE_ODD,
            K.QF_EFFECTIVE_EVEN,
            K.H1,
            K.H2,
            K.H_ZZ,
            K.H_EVEN,
            K.H_ODD,
            K.H_EVEN_PRIME,
            K.H_ODD_PRIME,
            K.H_XY_1D,
            K.H_E,
            K.H_E_PRIME,
            K.H_E_DOUBLE_PRIME,
            K.H_HEIS,
        )
        for kind in kinds_1d:
            assert build_canonical(kind, chain(5), 0.7, phi=0.3).is_hermitian()

    def test_magnetization_symmetry_of_xy(self):
        for n in (4, 6):
            h = build_canonical(K.H_XY_1D, chain(n))
            sz = PauliSum(n)
            for k in range(n):
                sz = sz + PauliSum.from_sites(n, {k: "Z"})
            assert commutator(h, sz).is_zero()


class Test2DFamilies:
    def test_h_i_term_budget(self):
        lat = Lattice.square(4, 4)
        h = build_canonical(K.H_I, lat)
        pats = [t.pattern for t in terms(h)]
        assert len(pats) == 32
        assert sum(1 for p in pats if set(p) - {"I"} == {"X"}) == 16
        assert sum(1 for p in pats if set(p) - {"I"} == {"Y"}) == 16

    def test_h_ii_is_single_axis_translation(self):
        lat = Lattice.square(4, 4)
        h_i = build_canonical(K.H_I, lat)
        h_ii = build_canonical(K.H_II, lat)
        assert translate_2d(h_i, lat, 1, 0) == h_ii
        assert translate_2d(h_i, lat, 0, 1) == h_ii
        # the diagonal shift maps the decomposition onto itself
        assert translate_2d(h_i, lat, 1, 1) == h_i

    def test_even_is_letter_swap_of_odd(self):
        lat = Lattice.square(4, 4)
        h_o = build_canonical(K.H_2D_ODD, lat)
        h_e = build_canonical(K.H_2D_EVEN, lat)
        swapped = reference_from_terms(
            h_o.n,
            [Term.from_pattern(t.pattern.translate(str.maketrans("XZ", "ZX")), t.coeff) for t in terms(h_o)],
        )
        assert h_e == swapped

    def test_open_boundary_literal_sums(self):
        # independent oracle: the four mixed-limit double sums, truncated
        nx = ny = 4
        lat = Lattice.square(nx, ny, boundary="open")
        n = lat.n_sites
        rows = []

        def add(letter, a, b):
            if all(1 <= c[0] <= nx and 1 <= c[1] <= ny for c in (a, b)):
                rows.append(Term.from_sites(n, {lat.site_index(*a): letter, lat.site_index(*b): letter}))

        for i in range(1, nx // 2 + 1):
            for j in range(1, ny // 2 + 1):
                oi, oj = 2 * i - 1, 2 * j - 1
                ei, ej = 2 * i, 2 * j
                add("Z", (oi, oj), (oi, oj + 1))
                add("Z", (oi, oj), (oi + 1, oj))
                add("Z", (ei, ej), (ei, ej + 1))
                add("Z", (ei, ej), (ei + 1, ej))
                add("X", (oi, ej), (oi, ej + 1))
                add("X", (oi, ej), (oi + 1, ej))
                add("X", (ei, oj), (ei, oj + 1))
                add("X", (ei, oj), (ei + 1, oj))
        oracle = reference_from_terms(n, rows)
        built = build_canonical(K.H_2D_ODD, lat)
        assert built == oracle
        assert built.num_terms() == 24

    def test_periodic_cell_count(self):
        lat = Lattice.square(4, 4)
        assert build_canonical(K.H_2D_ODD, lat).num_terms() == 32

    def test_periodic_requires_even_extents(self):
        with pytest.raises(ValueError):
            build_canonical(K.H_I, Lattice.square(3, 4))

    def test_xy_2d_sum(self):
        lat = Lattice.square(2, 4)
        assert build_canonical(K.H_XY_2D, lat) == build_canonical(
            K.H_I, lat
        ) + build_canonical(K.H_II, lat)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("kind", sorted(REFERENCE_CELLS))
    def test_checkerboard_walk_is_the_unit_cell_tiling(self, kind, boundary):
        # bit for bit, wherever the tiling builds; where it refuses, so does
        # the walk, but for h_xy_2d, whose odd and even bonds agree
        for nx, ny in itertools.product(range(1, 9), repeat=2):
            lat = Lattice.square(nx, ny, boundary=boundary)
            try:
                want = reference_tiling(kind, lat, 0.7)
            except ValueError:
                if kind != "h_xy_2d":
                    with pytest.raises(ValueError):
                        build_canonical(K(kind), lat, 0.7)
                continue
            got = build_canonical(K(kind), lat, 0.7)
            assert got == want, (nx, ny)
            assert got._c.tobytes() == want._c.tobytes(), (nx, ny)

    @pytest.mark.parametrize("nx, ny", [(3, 3), (3, 4), (5, 2), (1, 3), (1, 1)])
    def test_xy_2d_odd_periodic_extent_is_the_digital_sum(self, nx, ny):
        # no unit cell tiles an odd periodic side, but the xx + yy bonds need none
        lat = Lattice.square(nx, ny)
        hxx, hyy = xy2d_digital_hamiltonians(lat, 0.7)
        h = build_canonical(K.H_XY_2D, lat, 0.7)
        assert h == hxx + hyy
        assert h._c.tobytes() == (hxx + hyy)._c.tobytes()
        assert {t.weight for t in terms(h)} <= {2}


def _random_masked_sum(rng, n, nterms=40):
    """Random strings on ``n`` sites; weights mix -0.0, 0.0 and nonzero parts."""
    parts = (-0.0, 0.0, -1.25, 0.5, 3.0)
    terms = {}
    for _ in range(nterms):
        x, z = (int("".join(map(str, rng.integers(0, 2, n))), 2) for _ in "xz")
        terms[(x, z)] = complex(*rng.choice(parts, 2))
    terms[(0, 0)] = complex(-0.0, 2.0)
    return PauliSum(n, terms)


def _array_bytes(h):
    """Keys and weights as exact bytes, signed zeros included."""
    return h._x.shape, h._x.tobytes(), h._z.tobytes(), h._c.tobytes()


class TestTranslate2D:
    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 4), (8, 9), (10, 7)])
    def test_bitwise_against_reference_loop(self, rng, nx, ny):
        lat = Lattice.square(nx, ny)
        shifts = [(0, 0), (1, 0), (0, -1), (-1, 2), (nx + 1, -ny - 2), (-2 * nx - 3, 3 * ny + 1)]
        sums = [PauliSum(lat.n_sites)] + [_random_masked_sum(rng, lat.n_sites) for _ in range(3)]
        for h in sums:
            for di, dj in shifts:
                out, ref = translate_2d(h, lat, di, dj), reference_translate_2d(h, lat, di, dj)
                assert _array_bytes(out) == _array_bytes(ref)

    @pytest.mark.parametrize(
        "h",
        [
            build_canonical(K.H_I, Lattice.square(2, 2)),
            PauliSum.from_pattern("XY"),
            PauliSum.from_pattern("Z" * 20),
        ],
        ids=["h_i-2x2", "2-site", "20-site"],
    )
    def test_size_mismatch_rejected(self, h):
        with pytest.raises(ValueError, match=f"{h.n}-site operator on a 16-site lattice"):
            translate_2d(h, Lattice.square(4, 4), 1, 0)


class TestBondFamiliesAgainstReference:
    """Every canonical kind, bit for bit, against one reference ``Term`` per bond entry."""

    @staticmethod
    def _lattices(dim, boundary):
        if dim == 1:
            return [Lattice.chain(n, boundary) for n in range(1, 12)]
        return [Lattice.square(nx, ny, boundary) for nx, ny in itertools.product(range(1, 7), repeat=2)]

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_kind_equals_term_by_term_reference(self, dim, boundary):
        kinds = [(kind, 0.0) for kind in _BONDS]
        phases = (0.0, 0.3, math.pi / 2, -math.pi / 2, math.pi, -2.1)
        kinds += [(kind, phi) for kind in _PHASE_CHAINS for phi in phases]
        for lat in self._lattices(dim, boundary):
            for kind, phi in kinds:
                try:
                    want = reference_canonical(kind, lat, 0.7, phi)
                except ValueError as refusal:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(refusal))}$"):
                        build_canonical(kind, lat, 0.7, phi)
                    continue
                got = build_canonical(kind, lat, 0.7, phi)
                assert term_bits(got) == term_bits(want), (kind, lat, phi)


class TestOriginalAndDefect:
    def p(self, n=2, g=1.0, delta=10.0, ratio=0.05):
        return DeviceParams.uniform_chain(n, g=g, delta=delta, Omega=ratio * delta)

    def test_org_at_t0(self):
        h = build_org(K.ORG, self.p(), 0.0)
        g, r = 1.0, 0.05
        want = (
            PauliSum.from_pattern("ZZ", g / 4)
            + PauliSum.from_pattern("YY", g / 4)
            + PauliSum.from_pattern("XZ", -g / 4 * r)
            + PauliSum.from_pattern("ZX", -g / 4 * r)
        )
        assert h.allclose(want)

    def test_org_at_quarter_period(self):
        delta = 10.0
        t = (np.pi / 2) / delta
        h = build_org(K.ORG, self.p(delta=delta), t)
        g, r = 1.0, 0.05
        want = (
            PauliSum.from_pattern("YZ", g / 4)
            + PauliSum.from_pattern("ZY", -g / 4)
            + PauliSum.from_pattern("XZ", -g / 4 * r)
            + PauliSum.from_pattern("ZX", g / 4 * r)
        )
        assert h.allclose(want, tol=1e-12)

    def test_org_xy_at_t0(self):
        h = build_org(K.ORG_XY, self.p(n=3), 0.0)
        g, r = 1.0, 0.05
        per_bond = {
            "XY": g / 4,
            "YX": g / 4,
            "ZZ": -g / 2,
            "YY": -2 * g / 4 * r,
            "XX": -2 * g / 4 * r,
        }
        for pat, c in per_bond.items():
            assert np.isclose(coefficient(h, pat + "I").real, c)
            assert np.isclose(coefficient(h, "I" + pat).real, c)

    def test_delta_is_org_minus_effective(self, rng):
        p = self.p(n=4)
        j_eff = -1.0 * 0.5 / (4.0 * 10.0)
        for t in rng.uniform(0, 1, 4):
            t = float(t)
            lhs = build_org(K.ORG, p, t) - build_canonical(K.CONTROL, chain(4), j_eff)
            assert lhs.allclose(build_delta(K.DELTA_H, p, t))

    def test_defect_static_part_cancels_exactly(self):
        h = build_delta(K.DELTA_H, self.p(), 0.33)
        assert coefficient(h, "XZ") == 0.0

    def test_control_defect_norm_without_drive_rows(self):
        p = DeviceParams.uniform_chain(5, g=1.0, delta=10.0, Omega=0.0)
        for t in (0.0, 0.04, 0.11):
            assert np.isclose(
                build_delta(K.DELTA_H, p, t).frobenius_norm(normalized=True),
                1 / np.sqrt(2),
                atol=1e-12,
            )

    def test_delta_zz_keeps_phase_coupled_rows(self):
        p = self.p(n=3)
        h = build_delta(K.DELTA_ZZ, p, 0.2)
        assert coefficient(h, "ZZI") != 0.0  # the phase-weighted zz row survives
        assert h.is_hermitian()

    def test_generators_share_frequencies(self):
        gen = delta_hamiltonian(K.DELTA_H, self.p())
        assert gen.frequencies == (10.0, 20.0)

    def test_org_matches_dense_rotation_identity(self, rng):
        # defect equals a single-site x-rotation of the zz+yy chain plus drive rows
        p = DeviceParams.uniform_chain(2, g=1.0, delta=10.0, Omega=0.0)
        for t in rng.uniform(0, 0.6, 3):
            t = float(t)
            h = build_delta(K.DELTA_H, p, t)
            base = PauliSum.from_pattern("ZZ", 0.25) + PauliSum.from_pattern("YY", 0.25)
            rot = dense_oracle(PauliSum.from_pattern("XI"))
            u = np.cos(10 * t / 2) * np.eye(4) - 1j * np.sin(10 * t / 2) * rot
            ref = u.conj().T @ dense_oracle(base) @ u
            assert np.allclose(dense_oracle(h), ref, atol=1e-12)
