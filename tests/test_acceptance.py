"""Acceptance suite: every headline quantitative claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion, including measured values and runtimes.

Criterion 1 is split: the control-chain defect norm matches its closed
form at every time, but the XY defect operator contains a zz string fed
coherently by both of its toggled images, so its norm is time dependent,
(g/4) sqrt((N-1) (4 + 2 cos^2(delta t))), and touches the quoted
(g/2) sqrt(N-1) only at odd quarter periods. The second half of the
criterion asserts the quoted constant at all sampled times and therefore
fails; the numerics above it document exactly why. Criterion 1c asserts
the time-resolved law on the same grid.
"""

import time
from dataclasses import replace

import numpy as np

from crda.compiler import ModelKind, TargetModel, block_error
from crda.device import DeviceParams, Lattice
from crda.errors import (
    dyson_norm_formula,
    dyson_propagator_diff,
    synthesis_norm,
    synthesis_norm_formula,
    table1_check,
    trotter_commutator,
    unit_cell_report,
)
from crda.frames import (
    GateLayer,
    GateLayerKind as G,
    frame_error_scaling,
    layer_unitary,
    toggle,
    unitarity_defect,
    uqf_approx,
    verify_effective,
)
from crda.hamiltonians import HamiltonianKind as K, build_canonical
from crda.pauli import PauliSum, commutator


def _criterion(num: str, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num}: {label} {detail}"


def _runtime(num: str, started: float, limit: float) -> None:
    elapsed = time.time() - started
    _criterion(f"{num}", f"runtime {elapsed:.1f}s within {limit:.0f}s", elapsed < limit)


class TestCriterion1Synthesis:
    N_RANGE = range(2, 9)
    DELTA = 10.0
    RATIO = 1e-3
    TOL = 1e-3

    def _times(self):
        period = 2 * np.pi / self.DELTA
        return [(i + 0.5) / 20.0 * period for i in range(20)]

    def test_1a_control_defect_norm(self):
        started = time.time()
        worst = 0.0
        for n in self.N_RANGE:
            p = DeviceParams.uniform_chain(
                n, g=1.0, delta=self.DELTA, Omega=self.RATIO * self.DELTA
            )
            target = synthesis_norm_formula("control", 1.0, n)
            for t in self._times():
                value = synthesis_norm("control", p, t).entry("frobenius_norm").value
                worst = max(worst, abs(value - target))
        _criterion(
            "1a",
            f"control defect norm matches (g/2sqrt2)sqrt(N-1) to {self.TOL}",
            worst <= self.TOL,
            f"worst |dev| = {worst:.2e} over N=2..8 x 20 times",
        )
        _runtime("1a", started, 10.0)

    def test_1b_xy_defect_norm(self):
        worst = 0.0
        match_at_quarter = None
        for n in self.N_RANGE:
            p = DeviceParams.uniform_chain(
                n, g=1.0, delta=self.DELTA, Omega=self.RATIO * self.DELTA
            )
            target = synthesis_norm_formula("xy", 1.0, n)
            for t in self._times():
                value = synthesis_norm("xy", p, t).entry("frobenius_norm").value
                worst = max(worst, abs(value - target))
            quarter = (np.pi / 2) / self.DELTA
            match_at_quarter = abs(
                synthesis_norm("xy", p, quarter).entry("frobenius_norm").value - target
            )
        _criterion(
            "1b",
            f"xy defect norm matches (g/2)sqrt(N-1) to {self.TOL} at all times",
            worst <= self.TOL,
            f"worst |dev| = {worst:.3f}; at quarter period |dev| = "
            f"{match_at_quarter:.2e}; measured norm follows "
            "(g/4)sqrt((N-1)(4+2cos^2(dt)))",
        )

    def test_1c_xy_time_resolved_defect_norm(self):
        started = time.time()
        worst = worst_closed = 0.0
        for n in self.N_RANGE:
            p = DeviceParams.uniform_chain(
                n, g=1.0, delta=self.DELTA, Omega=self.RATIO * self.DELTA
            )
            for t in self._times():
                report = synthesis_norm("xy", p, t)
                value = report.entry("frobenius_norm").value
                law = 0.25 * np.sqrt((n - 1) * (4 + 2 * np.cos(self.DELTA * t) ** 2))
                closed = report.entry("closed_form_time_resolved").value
                worst = max(worst, abs(value - law))
                worst_closed = max(worst_closed, abs(value - closed) / closed)
        _criterion(
            "1c",
            f"xy defect norm follows (g/4)sqrt((N-1)(4+2cos^2(dt))) to {self.TOL}",
            worst <= self.TOL and worst_closed <= 1e-12,
            f"worst |dev| = {worst:.2e} over N=2..8 x 20 times; "
            f"closed_form_time_resolved agrees to {worst_closed:.1e} relative",
        )
        _runtime("1c", started, 10.0)


class TestCriterion2Dyson:
    def test_propagator_difference(self):
        started = time.time()
        delta = 10.0
        period = 2 * np.pi / delta
        worst = 0.0
        for n in range(2, 7):
            p = DeviceParams.uniform_chain(n, g=1.0, delta=delta, Omega=1e-8 * delta)
            for i in range(50):
                t = (i + 0.5) / 50.0 * period
                value = (
                    dyson_propagator_diff(p, t).entry("propagator_diff_norm").value
                )
                target = dyson_norm_formula(1.0, delta, n, t)
                worst = max(worst, abs(value - target) / target)
        _criterion(
            "2",
            "first-order propagator difference matches closed form to 1e-6 relative",
            worst <= 1e-6,
            f"worst rel dev = {worst:.2e} over N=2..6 x 50 times",
        )
        _runtime("2", started, 10.0)


class TestCriterion3ExactBlocks:
    def test_ising_and_xy_blocks(self):
        started = time.time()
        worst = 0.0
        for kind in (ModelKind.ISING_1D, ModelKind.XY_1D):
            for n in range(2, 9):
                for tau in (0.1, 1.0, 5.0):
                    m = TargetModel(kind, Lattice.chain(n), j=1.0, tau=tau)
                    worst = max(worst, block_error(m))
        _criterion(
            "3",
            "Ising/XY 1D blocks equal the target propagator to 1e-10",
            worst <= 1e-10,
            f"worst distance = {worst:.2e} over N=2..8, tau in {{0.1, 1, 5}}",
        )
        _runtime("3", started, 30.0)


class TestCriterion4CommutationBackbone:
    def test_exact_zero_commutators(self):
        ok = True
        for n in range(2, 11):
            lat = Lattice.chain(n)
            pairs = (
                (K.H1, K.H2),
                (K.H_EVEN, K.H_ODD),
                (K.H_EVEN_PRIME, K.H_ODD_PRIME),
                (K.QF_EFFECTIVE_ODD, K.QF_EFFECTIVE_EVEN),
            )
            for a, b in pairs:
                c = commutator(
                    build_canonical(a, lat), build_canonical(b, lat)
                )
                ok = ok and c.is_zero()
        _criterion(
            "4",
            "split-pair commutators are the exact zero operator for N <= 10",
            ok,
        )


class TestCriterion5AxisCycle:
    def test_cycle_properties(self):
        u = layer_unitary(GateLayer(G.UE, "all"), 1)
        cube_ok = np.linalg.norm(u @ u @ u + np.eye(2), 2) <= 1e-12
        lay = GateLayer(G.UE, "all")
        perm_ok = (
            toggle(PauliSum.from_pattern("X"), lay) == PauliSum.from_pattern("Z")
            and toggle(PauliSum.from_pattern("Y"), lay) == PauliSum.from_pattern("X")
            and toggle(PauliSum.from_pattern("Z"), lay) == PauliSum.from_pattern("Y")
        )
        sum_ok = True
        for n in range(2, 10):
            lat = Lattice.chain(n)
            total = (
                build_canonical(K.H_E, lat)
                + build_canonical(K.H_E_PRIME, lat)
                + build_canonical(K.H_E_DOUBLE_PRIME, lat)
            )
            sum_ok = sum_ok and total == build_canonical(K.H_HEIS, lat)
        _criterion(
            "5",
            "axis-cycle gate: cube = -1, (x,y,z)->(z,x,y), three toggles sum "
            "to the Heisenberg chain",
            cube_ok and perm_ok and sum_ok,
        )


class TestCriterion6HeisenbergTrotter:
    def test_block_error_scaling_and_norms(self):
        started = time.time()
        m = TargetModel(ModelKind.HEISENBERG_1D, Lattice.chain(4), j=1.0, tau=0.02)
        ratios = [block_error(replace(m, tau=tau)) / tau**2 for tau in (0.02, 0.01, 0.005)]
        scaling_ok = max(ratios) / min(ratios) <= 1.10
        norms_ok = True
        pair_ok = True
        for n in range(3, 9):
            da = trotter_commutator("heis_da", Lattice.chain(n))
            dig = trotter_commutator("heis_digital", Lattice.chain(n))
            norms_ok = norms_ok and da.entry("commutator_spectral_norm").passed
            pair = dig.entry("per_bond_pair_norm")
            pair_ok = (
                pair_ok
                and abs(pair.value - 4 * np.sqrt(3)) <= 1e-6
                and pair.value <= 12.0 + 1e-9
            )
        _criterion(
            "6",
            "Heisenberg: block error quadratic in tau; split norms within bounds",
            scaling_ok and norms_ok and pair_ok,
            f"err/tau^2 spread = {max(ratios)/min(ratios) - 1:.3f}, "
            f"per-pair norm = 4sqrt3 = {4*np.sqrt(3):.6f}",
        )
        _runtime("6", started, 60.0)


class TestCriterion7Table1:
    def test_structural_audit(self):
        started = time.time()
        rep = table1_check(Lattice.square(4, 4), j=1.0)
        _criterion(
            "7",
            "4x4 periodic unit-cell commutator table: 16 weight-3 pairs per "
            "cell, same-letter blocks vanish, block split exact",
            rep.passed,
            f"pairs/cell = {rep.entry('noncommuting_pairs_per_cell').value:.0f}",
        )
        _runtime("7", started, 30.0)


class TestCriterion8XY2DBounds:
    def test_matrix_free_norms(self):
        started = time.time()
        lat = Lattice.square(4, 4)
        da = trotter_commutator("xy2d_da", lat, j=1.0)
        dig = trotter_commutator("xy2d_digital", lat, j=1.0)
        nda = da.entry("commutator_spectral_norm")
        ndig = dig.entry("commutator_spectral_norm")
        ratio = ndig.value / nda.value
        cells = unit_cell_report()
        detail = (
            f"|[H_I,H_II]| = {nda.value:.2f} <= {nda.bound:.0f}, "
            f"|[H_xx,H_yy]| = {ndig.value:.2f} <= {ndig.bound:.0f}, "
            f"ratio = {ratio:.3f} (reference 2.19; cell norms "
            f"{cells.entry('da_cell_commutator_norm').value:.2f} vs reference 15.44, "
            f"{cells.entry('digital_corner_cell_norm').value:.2f} vs reference 8.49, "
            "reported not asserted)"
        )
        _criterion(
            "8",
            "16-qubit matrix-free commutator norms within analytic bounds, "
            "digital/DA ratio >= 1.5",
            nda.passed and ndig.passed and ratio >= 1.5,
            detail,
        )
        _runtime("8", started, 600.0)


class TestCriterion9FrameVerification:
    def test_lab_frame_against_effective_chain(self):
        started = time.time()
        n, delta, base = 2, 5.0, 40.0
        omega_q = np.array([base + (n - k) * delta for k in range(1, n + 1)])
        p = DeviceParams(
            n=n,
            omega_q=omega_q,
            omega=omega_q - delta,
            Omega=np.full(n, 0.05 * delta),
            phi=np.zeros(n),
            g=np.full(n - 1, 0.02 * delta),
        )
        t_final = 20 * np.pi / delta
        rep = verify_effective(p, t_final, mode="lab")
        dists, slope = frame_error_scaling(p, t_final)
        _criterion(
            "9",
            "lab-frame integration matches effective-chain evolution, "
            "residual quadratic in the coupling ratios",
            rep.distance <= 0.05 and abs(slope - 2.0) <= 0.3,
            f"distance = {rep.distance:.4f} (g/delta = 0.02, Omega/delta = 0.05, "
            f"delta t = 20pi), scaling exponent = {slope:.2f}",
        )
        _runtime("9", started, 60.0)


class TestCriterion10ApproxEntryUnitary:
    def test_defect_level_and_scaling(self):
        delta = 10.0
        defects = []
        for ratio in (0.1, 0.05):
            p = DeviceParams.cr_chain(
                np.array([delta + 40.0, 40.0]), g=0.1, Omega=ratio * delta
            )
            defects.append(
                max(
                    unitarity_defect(uqf_approx(p, t))
                    for t in np.linspace(0.0, 2 * np.pi / delta, 16)
                )
            )
        two_point = defects[0] / defects[1]
        _criterion(
            "10",
            "approximate frame-entry unitary: defect <= 0.02 at ratio 0.1, "
            "quadratic two-point scaling",
            defects[0] <= 0.02 and abs(two_point - 4.0) <= 0.5,
            f"defect = {defects[0]:.4f}, ratio = {two_point:.2f}",
        )


class TestCriterion11Determinism:
    def test_cli_reruns_are_byte_identical(self, corpus_runs):
        a, b, seconds = corpus_runs  # the golden corpus in two processes (conftest)
        _criterion(
            "11",
            "repeated CLI runs produce byte-identical outputs",
            a == b,
            f"{len(a)} golden-corpus commands in two processes",
        )
        _runtime("11", time.time() - seconds, 60.0)
