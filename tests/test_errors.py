"""Error reports: synthesis norms, propagator differences, commutator audits."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from conftest import dense_oracle, reference_trotter_checks
from crda.device import DeviceParams, Lattice
from crda.errors import (
    ErrorReport,
    ReportEntry,
    bound_table,
    dyson_norm_formula,
    dyson_propagator_diff,
    heisenberg_da_commutator_sum,
    synthesis_norm,
    synthesis_norm_formula,
    table1_check,
    trotter_commutator,
    unit_cell_report,
    xy2d_digital_hamiltonians,
)
from crda.hamiltonians import HamiltonianKind as K, build_canonical, translate_2d
from crda import errors, hamiltonians, pauli
from crda.pauli import PRUNE_TOL, PauliSum, PauliTerm, anticommutes, commutator, multiply


def uniform(n, g=1.0, delta=10.0, ratio=0.0):
    return DeviceParams.uniform_chain(n, g=g, delta=delta, Omega=ratio * delta)


class TestReportEntries:
    def test_bound_marks_pass(self):
        assert ReportEntry("a", 1.0, bound=2.0).passed is True
        assert ReportEntry("a", 2.0 + 1e-10, bound=2.0).passed is True
        assert ReportEntry("a", 2.1, bound=2.0).passed is False

    def test_report_aggregates(self):
        rep = ErrorReport("demo")
        rep.add("ok", 1.0, bound=2.0)
        assert rep.passed
        rep.add("bad", 3.0, bound=2.0)
        assert not rep.passed

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ReportEntry("a", float("inf"))

    def test_csv_rows_shape(self):
        rep = ErrorReport("demo")
        rep.add("x", 0.5, analytic=0.5, bound=1.0)
        rows = rep.to_csv_rows()
        assert rows[0] == ["name", "value", "analytic", "bound", "pass"]
        assert rows[1][0] == "x" and rows[1][4] == "true"


class TestSynthesisNorm:
    def test_control_reference_number(self):
        rep = synthesis_norm("control", uniform(2), 0.0)
        e = rep.entry("frobenius_norm")
        assert np.isclose(e.value, 0.353553, atol=5e-7)
        assert np.isclose(e.value, e.analytic, atol=1e-12)

    def test_control_time_independent(self):
        p = uniform(6)
        vals = [
            synthesis_norm("control", p, t).entry("frobenius_norm").value
            for t in np.linspace(0, 0.6, 7)
        ]
        assert max(vals) - min(vals) <= 1e-12

    def test_xy_reference_at_quarter_period(self):
        p = uniform(5)
        t = (np.pi / 2) / 10.0
        e = synthesis_norm("xy", p, t).entry("frobenius_norm")
        assert np.isclose(e.value, 1.0, atol=1e-9)
        assert e.analytic == synthesis_norm_formula("xy", 1.0, 5)

    def test_xy_time_resolved_closed_form_tracks_numeric(self):
        p = uniform(4, ratio=0.1)
        for t in np.linspace(0.0, 2 * np.pi / 10.0, 9):
            rep = synthesis_norm("xy", p, float(t))
            assert np.isclose(
                rep.entry("frobenius_norm").value,
                rep.entry("closed_form_time_resolved").value,
                atol=1e-12,
            )

    def test_control_deviation_bounded_by_drive_ratio(self):
        g, ratio = 1.0, 0.1
        p = uniform(4, g=g, ratio=ratio)
        for t in np.linspace(0, 0.6, 8):
            rep = synthesis_norm("control", p, float(t))
            assert rep.entry("abs_deviation").value <= g * ratio

    @pytest.mark.parametrize("model", ["control", "xy", "zz"])
    def test_overflowing_norm_refused(self, model):
        with pytest.raises(ValueError, match="overflows float64"):
            synthesis_norm(model, uniform(4, g=1e160), 0.0)

    def test_zz_formula_consistent(self):
        p = uniform(5, ratio=0.1)
        rel_devs = []
        for t in np.linspace(0.01, 0.6, 8):
            e = synthesis_norm("zz", p, float(t)).entry("frobenius_norm")
            rel_devs.append(abs(e.value - e.analytic) / e.analytic)
        assert max(rel_devs) <= 5e-3  # only second order in the drive ratio


class TestDyson:
    def test_reference_value(self):
        rep = dyson_propagator_diff(uniform(2, ratio=1e-8), np.pi / 10.0)
        e = rep.entry("propagator_diff_norm")
        assert np.isclose(e.value, 0.0707107, atol=1e-7)
        assert np.isclose(e.value, e.analytic, rtol=1e-9)

    def test_vanishes_after_full_period(self):
        rep = dyson_propagator_diff(uniform(3, ratio=1e-8), 2 * np.pi / 10.0)
        assert rep.entry("propagator_diff_norm").value <= 1e-12

    def test_small_time_ratio(self):
        rep = dyson_propagator_diff(uniform(4, ratio=1e-8), 0.001)
        assert abs(rep.entry("ratio_to_t_times_defect_norm").value - 1.0) <= 1e-4

    def test_formula_helper(self):
        assert np.isclose(
            dyson_norm_formula(1.0, 10.0, 2, np.pi / 10.0), 0.07071067811865475
        )

    def test_quadrature_rule_is_kept_read_only(self):
        xs, ws = errors._gauss_legendre(64)
        assert errors._gauss_legendre(64)[0] is xs
        with pytest.raises(ValueError, match="read-only"):
            xs[0] = 0.0
        want = np.polynomial.legendre.leggauss(64)
        assert xs.tobytes() == want[0].tobytes() and ws.tobytes() == want[1].tobytes()

    def test_threaded_sweep_equals_serial_sweep(self):
        # the threads share the bounded rule cache; the 40 times take 32 node
        # counts (64 to 219), more than it keeps, so rules are evicted mid-sweep
        p = uniform(4, ratio=0.05)
        times = [0.1 * k for k in range(1, 41)]
        run = lambda t: dyson_propagator_diff(p, t).to_json_dict()  # noqa: E731
        serial = [run(t) for t in times]
        assert len({r["params"]["quadrature_nodes"] for r in serial}) > 8
        errors._gauss_legendre.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, times, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestKeptChains:
    @pytest.mark.parametrize(
        "call",
        [lambda p, m=m: synthesis_norm(m, p, 0.3) for m in ("control", "xy", "zz")]
        + [lambda p: dyson_propagator_diff(p, 0.3)],
    )
    def test_each_call_reads_the_uniform_quantities_once(self, call):
        p = uniform(5, ratio=0.05)
        with mock.patch.object(
            DeviceParams, "uniform", autospec=True, side_effect=DeviceParams.uniform
        ) as read:
            call(p)
            call(p)
        assert read.call_count == 2

    def test_threads_building_one_chain_equal_the_serial_sweep(self):
        # every thread may build the same missing chain; each build is the same
        p = uniform(6, ratio=0.04)
        times = [0.05 * k for k in range(24)]
        run = lambda t: synthesis_norm("zz", p, t).to_json_dict()  # noqa: E731
        serial = [run(t) for t in times]
        hamiltonians._org_chain.cache_clear()
        hamiltonians._delta_chain.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, times, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestTable1:
    def test_four_by_four_audit(self):
        rep = table1_check(Lattice.square(4, 4), j=1.0)
        assert rep.passed
        assert rep.entry("noncommuting_pairs_per_cell").value == 16.0
        assert rep.entry("xx_xx_block_norm").value == 0.0
        assert rep.entry("yy_yy_block_norm").value == 0.0
        assert rep.entry("full_minus_block_sum_norm").value == 0.0

    def test_specific_pair_entry(self):
        # commutator of the first vertical xx bond with the first vertical
        # yy bond of the companion decomposition, cell anchored at (1, 1)
        lat = Lattice.square(4, 4)
        n = lat.n_sites
        a = PauliSum.from_sites(
            n, {lat.site_index(1, 1): "X", lat.site_index(2, 1): "X"}
        )
        b = PauliSum.from_sites(
            n, {lat.site_index(1, 1): "Y", lat.site_index(1, 2): "Y"}
        )
        got = commutator(a, b)
        want = PauliSum.from_sites(
            n,
            {
                lat.site_index(1, 1): "Z",
                lat.site_index(2, 1): "X",
                lat.site_index(1, 2): "Y",
            },
            2j,
        )
        assert got == want

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            table1_check(Lattice.square(4, 4, boundary="open"))

    def test_scaled_coupling(self):
        rep = table1_check(Lattice.square(4, 4), j=0.5)
        assert rep.passed

    def test_pair_products_formed_once(self, monkeypatch):
        # The audited anticommuting pair products of h_i and h_ii also give
        # [h_i, h_ii] for the block residual; they are not formed again.
        lat = Lattice.square(4, 4)
        h_i, h_ii = build_canonical(K.H_I, lat), build_canonical(K.H_II, lat)
        pair_terms, calls = pauli._pair_terms, []

        def counted(a, b, pairs=None):
            calls.append(a == h_i and b == h_ii)
            return pair_terms(a, b, pairs)

        monkeypatch.setattr(pauli, "_pair_terms", counted)
        monkeypatch.setattr(errors, "_pair_terms", counted)
        assert table1_check(lat).passed
        assert calls.count(True) == 1

    @pytest.mark.parametrize("j", [1e154, 1e160])
    def test_overflowing_pair_commutators_refused(self, j):
        # 2 J^2 overflows float64: the pair weights are refused before the
        # audit compares them with 2 J^2, which is inf as well
        with pytest.raises(ValueError, match="coefficient must be finite"):
            table1_check(Lattice.square(4, 4), j=j)

    def test_malformed_pairs_match_term_by_term_audit(self, monkeypatch):
        # Stray strings in H_II make malformed pair commutators; the
        # vectorized audit must count and name them as a term loop does.
        lat = Lattice.square(4, 4)
        n = lat.n_sites
        stray = PauliSum.from_terms(
            [
                PauliTerm.from_sites(n, {0: "Z"}, 0.3),
                PauliTerm.from_sites(n, {1: "X", 5: "Z", 9: "Y"}),
                PauliTerm.from_sites(n, {2: "Z", 7: "Z"}, 0.7),
            ]
        )

        def doctored(kind, lattice, j=1.0):
            h = build_canonical(kind, lattice, j)
            return h + stray if kind is K.H_II else h

        monkeypatch.setattr(errors, "build_canonical", doctored)
        rep = table1_check(lat, j=1.0)
        h_i, h_ii = doctored(K.H_I, lat), doctored(K.H_II, lat)
        nonzero, bad = 0, []
        for ta in h_i.terms():
            for tb in h_ii.terms():
                if not anticommutes(ta, tb):
                    continue
                product = multiply(ta, tb)
                coeff = 2.0 * product.coeff
                if abs(coeff) <= PRUNE_TOL:
                    continue
                nonzero += 1
                if product.weight != 3 or abs(abs(coeff) - 2.0) >= 1e-12:
                    bad.append((ta.pattern, tb.pattern))
        assert len(bad) > 8 and nonzero > 16 * 4
        assert rep.entry("noncommuting_pairs_per_cell").value == nonzero / 4
        assert rep.entry("malformed_pair_commutators").value == len(bad)
        assert rep.params["offending_pairs"] == bad[:8]
        assert not rep.passed


_TROTTER_LATTICES = {
    "xy2d_da": (Lattice.square(2, 4), Lattice.square(4, 2, boundary="open")),
    "xy2d_digital": (Lattice.square(2, 4),),
    "heis_da": (Lattice.chain(9),),
    "heis_digital": (Lattice.chain(5),),
}

_STRUCTURE = ("all_terms_weight_3", "coefficient_magnitudes_2j2", "one_of_each_letter_structure")


def _structure(model, rep):
    """The structural entries as ``(name, value, passed)``, checking the report's layout."""
    checks = [e for e in rep.entries if e.name in _STRUCTURE]
    tail = ["per_bond_pair_norm"] if model == "heis_digital" else []
    names = ["commutator_spectral_norm", "commutator_terms", *(e.name for e in checks), *tail]
    assert [e.name for e in rep.entries] == names
    assert all(type(e.passed) is bool and e.analytic == 1.0 for e in checks)
    json.dumps(rep.to_json_dict())
    return [(e.name, e.value, e.passed) for e in checks]


def _audit_sum(rng, n, j, defect):
    """Strings of one X, one Y and one Z with magnitude 2 J^2, and a ``defect`` string.

    ``defect`` is ``(letters, magnitude)`` or None; each string sits on
    random sites, its weight at a quarter-turn or a random phase.
    """
    m = 2.0 * j * j
    strings = [("XYZ", m)] * 10 + ([defect] if defect else [])
    terms = []
    for letters, size in strings:
        sites = rng.choice(n, len(letters), replace=False).tolist()
        phase = (1.0, -1.0, 1j, -1j, np.exp(1j * rng.uniform(0, 2 * np.pi)))[rng.integers(5)]
        terms.append(PauliTerm.from_sites(n, dict(zip(sites, letters)), size * phase))
    return PauliSum.from_terms(terms)


class TestTrotterCommutators:
    @pytest.mark.parametrize("j", [1.0, 0.3, -0.45, 1.7, 0.0])
    @pytest.mark.parametrize("model", sorted(_TROTTER_LATTICES))
    def test_structure_entries_match_reference_loop(self, model, j):
        for lat in _TROTTER_LATTICES[model]:
            comm = errors._split_commutator(errors._SPLITS[model][2](lat, j))
            assert comm.is_zero() == (j == 0.0)
            rep = trotter_commutator(model, lat, j=j)
            assert _structure(model, rep) == reference_trotter_checks(model, comm, j)

    @pytest.mark.parametrize("n", [6, 70])
    @pytest.mark.parametrize("model", sorted(_TROTTER_LATTICES))
    def test_structure_entries_on_generated_sums(self, monkeypatch, rng, model, n):
        # the audit reads only the commutator, so any sum can stand in for it
        lat = _TROTTER_LATTICES[model][0]
        monkeypatch.setattr(errors, "spectral_norm", lambda h, seed=7: 0.0)
        seen = set()
        for j in (1.0, 0.3, -0.45, 1.7, 0.0):
            m = 2.0 * j * j
            defects = [None, ("XY", m), ("Z", m), ("XXZ", m), ("XYZX", m), ("YYYY", m)]
            defects += [("XYZ", m + d) for d in (4e-13, -4e-13, 1e-11, -1e-11)]
            for defect in defects:
                comm = _audit_sum(rng, n, j, defect)
                monkeypatch.setattr(errors, "_split_commutator", lambda parts: comm)
                got = _structure(model, trotter_commutator(model, lat, j=j))
                assert got == reference_trotter_checks(model, comm, j)
                seen.update((name, ok) for name, _, ok in got)
        # every check both passes and fails somewhere in the sweep
        assert {name for name, _ in seen} == {name for name, ok in seen if ok}
        assert {name for name, _ in seen} == {name for name, ok in seen if not ok}

    def test_audits_build_no_term(self, monkeypatch):
        lat = Lattice.square(4, 4)
        h_i, h_ii = build_canonical(K.H_I, lat), build_canonical(K.H_II, lat)

        def refuse(self):
            raise AssertionError("a PauliTerm was built")

        monkeypatch.setattr(PauliTerm, "__post_init__", refuse)
        reports = [
            trotter_commutator(model, each)
            for model, lats in _TROTTER_LATTICES.items()
            for each in lats
        ]
        reports += [unit_cell_report(), table1_check(lat)]
        moved = translate_2d(h_i, lat, 1, 0)
        printed = (h_i.to_json_dict(), repr(h_i))
        monkeypatch.undo()
        assert moved == h_ii
        assert all(rep.passed for rep in reports)
        assert printed[0]["terms"][0] == {"p": "IIIIIIIIIIIIIIYY", "re": 1.0, "im": 0.0}
        assert printed[1].startswith("PauliSum(n=16: (1+0j)*XXIIIIIIIIIIIIII + ")

    @pytest.mark.parametrize("model", sorted(_TROTTER_LATTICES))
    def test_empty_commutator_passes_every_check(self, model):
        rep = trotter_commutator(model, _TROTTER_LATTICES[model][0], j=0.0)
        assert rep.entry("commutator_terms").value == 0.0
        assert rep.passed, [(e.name, e.value) for e in rep.entries if e.passed is False]

    def test_heisenberg_da_matches_dense_oracle(self):
        for n in (4, 5):
            c = heisenberg_da_commutator_sum(n, 1.0)
            lat = Lattice.chain(n)
            parts = [
                build_canonical(k, lat)
                for k in (K.H_E, K.H_E_PRIME, K.H_E_DOUBLE_PRIME)
            ]
            ds = [dense_oracle(p) for p in parts]
            ref = np.zeros_like(ds[0])
            for i in range(3):
                for k in range(i + 1, 3):
                    ref += ds[i] @ ds[k] - ds[k] @ ds[i]
            assert np.allclose(dense_oracle(c), ref, atol=1e-12)

    def test_heisenberg_da_structure_and_bound(self):
        for n in (3, 6, 8):
            rep = trotter_commutator("heis_da", Lattice.chain(n))
            assert rep.entry("commutator_spectral_norm").passed
            assert rep.entry("all_terms_weight_3").value == 1.0
            assert rep.entry("coefficient_magnitudes_2j2").value == 1.0

    def test_heisenberg_digital_per_pair(self):
        rep = trotter_commutator("heis_digital", Lattice.chain(5))
        pair = rep.entry("per_bond_pair_norm")
        assert abs(pair.value - 4 * np.sqrt(3)) <= 1e-6
        assert pair.passed  # <= 12 J^2

    def test_two_site_heisenberg_digital_has_no_even_bonds(self):
        rep = trotter_commutator("heis_digital", Lattice.chain(2))
        norm = rep.entry("commutator_spectral_norm")
        assert norm.value == 0.0 and norm.passed
        assert rep.entry("commutator_terms").value == 0.0

    def test_digital_dominates_da_on_chains(self):
        for n in range(3, 9):
            da = trotter_commutator("heis_da", Lattice.chain(n))
            dig = trotter_commutator("heis_digital", Lattice.chain(n))
            assert (
                dig.entry("commutator_spectral_norm").value
                >= da.entry("commutator_spectral_norm").value - 1e-9
            )

    def test_xy2d_small_lattice_dense(self):
        lat = Lattice.square(2, 4)
        da = trotter_commutator("xy2d_da", lat)
        dig = trotter_commutator("xy2d_digital", lat)
        assert da.entry("commutator_spectral_norm").passed
        assert dig.entry("commutator_spectral_norm").passed
        ratio = (
            dig.entry("commutator_spectral_norm").value
            / da.entry("commutator_spectral_norm").value
        )
        assert ratio >= 1.5

    def test_xy2d_da_commutator_structure(self):
        rep = trotter_commutator("xy2d_da", Lattice.square(4, 4))
        assert rep.entry("one_of_each_letter_structure").value == 1.0
        assert rep.entry("coefficient_magnitudes_2j2").value == 1.0

    def test_xy2d_digital_edge_budget(self):
        lat = Lattice.square(4, 4)
        hxx, hyy = xy2d_digital_hamiltonians(lat, 1.0)
        assert hxx.num_terms() == 2 * lat.n_sites  # periodic edge count
        assert hyy.num_terms() == 2 * lat.n_sites
        # extent-2 axes double their wrap bonds into single weight-2 terms
        small = xy2d_digital_hamiltonians(Lattice.square(2, 4), 1.0)[0]
        assert small.num_terms() == 12
        assert small.coefficient("XXIIIIII") == 2.0

    def test_xy2d_digital_periodic_extent_one_has_no_self_bond(self):
        # a 1 x 3 ring: the +x neighbour of every site is itself, so only
        # the three y bonds remain, each of weight 2
        hxx, hyy = xy2d_digital_hamiltonians(Lattice.square(1, 3), 1.0)
        assert {t.pattern: t.coeff for t in hxx.terms()} == {"XXI": 1.0, "XIX": 1.0, "IXX": 1.0}
        assert {t.pattern: t.coeff for t in hyy.terms()} == {"YYI": 1.0, "YIY": 1.0, "IYY": 1.0}
        rep = trotter_commutator("xy2d_digital", Lattice.square(1, 3))
        assert rep.entry("all_terms_weight_3").value == 1.0

    def test_xy2d_digital_single_site_is_zero(self):
        for boundary in ("open", "periodic"):
            hxx, hyy = xy2d_digital_hamiltonians(Lattice.square(1, 1, boundary=boundary), 1.0)
            assert hxx.is_zero() and hyy.is_zero()

    @pytest.mark.parametrize(
        "nx, ny, norm", [(3, 3, 68.08776358574299), (3, 4, 91.70664985046636)]
    )
    def test_xy2d_digital_odd_periodic_extent(self, nx, ny, norm):
        # The all-xx / all-yy edge split has no unit cells, so an odd
        # periodic side is allowed: every site keeps its +x and +y bond.
        lat = Lattice.square(nx, ny)
        hxx, hyy = xy2d_digital_hamiltonians(lat, 1.0)
        for h, letter in ((hxx, "X"), (hyy, "Y")):
            expected = {}
            for j in range(ny):
                for i in range(nx):
                    for a, b in (((i + 1) % nx, j), (i, (j + 1) % ny)):
                        pattern = ["I"] * lat.n_sites
                        pattern[j * nx + i] = pattern[b * nx + a] = letter
                        expected["".join(pattern)] = 1.0
            assert {t.pattern: t.coeff for t in h.terms()} == expected
        rep = trotter_commutator("xy2d_digital", lat)
        entry = rep.entry("commutator_spectral_norm")
        assert entry.value == pytest.approx(norm, rel=1e-12)
        assert entry.bound == 24.0 * lat.n_sites
        assert entry.passed

    def test_coupling_scaling(self):
        j = 0.5
        rep = trotter_commutator("heis_da", Lattice.chain(4), j=j)
        base = trotter_commutator("heis_da", Lattice.chain(4), j=1.0)
        assert np.isclose(
            rep.entry("commutator_spectral_norm").value,
            j * j * base.entry("commutator_spectral_norm").value,
        )

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            trotter_commutator("nope", Lattice.chain(4))

    @pytest.mark.parametrize(
        "model, lat",
        [("xy2d_digital", Lattice.chain(4)), ("heis_da", Lattice.square(2, 2))],
    )
    def test_wrong_lattice_dimension_rejected(self, model, lat):
        with pytest.raises(ValueError, match="lattice"):
            trotter_commutator(model, lat)


class TestUnitCell:
    def test_corner_cell_is_four(self):
        rep = unit_cell_report()
        corner = rep.entry("digital_corner_cell_norm")
        assert np.isclose(corner.value, 4.0, atol=1e-10)
        # independent 8x8 oracle
        a = PauliSum.from_terms(
            [
                PauliTerm.from_sites(3, {0: "X", 1: "X"}),
                PauliTerm.from_sites(3, {0: "X", 2: "X"}),
            ]
        )
        b = PauliSum.from_terms(
            [
                PauliTerm.from_sites(3, {0: "Y", 1: "Y"}),
                PauliTerm.from_sites(3, {0: "Y", 2: "Y"}),
            ]
        )
        c = dense_oracle(commutator(a, b))
        assert np.isclose(np.max(np.abs(np.linalg.eigvalsh(1j * c))), 4.0)

    def test_da_cell_reported_not_asserted(self):
        rep = unit_cell_report()
        da = rep.entry("da_cell_commutator_norm")
        assert 0 < da.value <= 32.0  # triangle bound: 16 strings of weight 2
        assert da.analytic == 15.44
        assert da.passed is None  # reference values are echoed, not gated

    def test_ratio_uses_tiling_weights(self):
        rep = unit_cell_report()
        ratio = rep.entry("tiled_digital_to_da_ratio")
        corner = rep.entry("digital_corner_cell_norm").value
        da = rep.entry("da_cell_commutator_norm").value
        assert np.isclose(ratio.value, 4 * corner / da)


class TestBoundTable:
    def test_reference_values(self):
        assert bound_table("xy2d_da", 4).entry("commutator_bound").value == 128.0
        assert bound_table("heis_da", 10).entry("commutator_bound").value == 60.0
        assert bound_table("xy2d_digital", 4).entry("commutator_bound").value == 384.0
        assert bound_table("heis_digital", 5).entry("commutator_bound").value == 60.0

    def test_single_site_defect_is_zero(self):
        assert bound_table("synthesis_control", 1).entry("defect_norm").value == 0.0

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            bound_table("mystery", 4)
