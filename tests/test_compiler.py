"""Schedule compilation, synthesis exactness, fusion, and simulation."""

import numpy as np
import pytest

from crda.compiler import (
    AnalogSegment,
    ModelKind,
    Schedule,
    TargetModel,
    block_error,
    block_unitary,
    compile_model,
    fuse,
    schedule_unitary,
    simulate,
    target_hamiltonian,
)
from crda.device import DeviceParams, Lattice
from crda.frames import (
    GateLayer,
    GateLayerKind as G,
    phase_insensitive_distance,
    toggle_chain,
    unitarity_defect,
)
from crda.hamiltonians import HamiltonianKind as K, TimeDependentHamiltonian, build_canonical
from crda.pauli import PauliSum, expm_hermitian


def model(kind, n=4, j=1.0, tau=0.3, reps=1, boundary="open", ny=None):
    if kind is ModelKind.XY_2D:
        lat = Lattice.square(n, ny or n, boundary="periodic")
    else:
        lat = Lattice.chain(n, boundary)
    return TargetModel(kind, lat, j=j, tau=tau, repetitions=reps)


class TestBlockStructure:
    def test_ising_block_transcription(self):
        s = compile_model(model(ModelKind.ISING_1D))
        kinds = [
            (step.kind.value, step.support) if isinstance(step, GateLayer) else "analog"
            for step in s.steps
        ]
        assert kinds == [
            ("h", "all"),
            "analog",
            ("h", "all"),
            ("h", "all"),
            "analog",
            ("h", "all"),
        ]
        segs = s.segments()
        assert [seg.drive for seg in segs] == ["odd", "even"]
        assert s.analog_time_per_block == pytest.approx(2 * 0.3)

    def test_xy_block_has_two_segments_and_repeats(self):
        s = compile_model(model(ModelKind.XY_1D, reps=2))
        assert len(s.segments()) == 2
        assert len(s.steps) == 10
        assert s.repetitions == 2
        assert s.analog_time_per_block == pytest.approx(0.6)

    def test_heisenberg_block_axis_cycles_between_segments(self):
        s = compile_model(model(ModelKind.HEISENBERG_1D))
        assert len(s.segments()) == 3
        assert s.analog_time_per_block == pytest.approx(3 * 0.3)
        kinds = [step.kind for step in s.steps if isinstance(step, GateLayer)]
        assert G.UE2 in kinds and G.UE in kinds

    def test_block_unitarity(self):
        for kind in ModelKind:
            m = model(kind, n=4, ny=2 if kind is ModelKind.XY_2D else None)
            u = block_unitary(compile_model(m))
            assert unitarity_defect(u) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TargetModel(ModelKind.XY_2D, Lattice.chain(4))
        with pytest.raises(ValueError):
            TargetModel(ModelKind.ISING_1D, Lattice.square(2, 2))

    def test_timing_validated(self):
        with pytest.raises(ValueError):
            TargetModel(ModelKind.ISING_1D, Lattice.chain(4), tau=0.0)
        with pytest.raises(ValueError):
            TargetModel(ModelKind.ISING_1D, Lattice.chain(4), repetitions=0)

    def test_segment_analogs_are_toggled_effective_chains(self):
        # conjugating each segment's chain through the gate layers that
        # precede it must land on the summands of the target model
        for kind, pieces in (
            (ModelKind.ISING_1D, (K.H1, K.H2)),
            (ModelKind.XY_1D, (K.H_EVEN_PRIME, K.H_ODD_PRIME)),
            (ModelKind.HEISENBERG_1D, (K.H_E_DOUBLE_PRIME, K.H_E_PRIME, K.H_E)),
            (ModelKind.XY_2D, (K.H_II, K.H_I)),
        ):
            m = model(kind, n=6, tau=0.1)
            s = compile_model(m)
            toggled = []
            prefix: list[GateLayer] = []
            for step in s.steps:
                if isinstance(step, AnalogSegment):
                    toggled.append(toggle_chain(step.analog, list(reversed(prefix))))
                else:
                    prefix.append(step)
            want = [build_canonical(p, m.lattice, m.j) for p in pieces]
            assert len(toggled) == len(want)
            for got, ref in zip(toggled, want):
                assert got.allclose(ref)
            total = toggled[0]
            for t in toggled[1:]:
                total = total + t
            assert total.allclose(target_hamiltonian(m))


class TestExactSynthesis:
    @pytest.mark.parametrize("kind", [ModelKind.ISING_1D, ModelKind.XY_1D])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 5.0])
    def test_block_matches_target_propagator(self, kind, tau):
        for n in (2, 5):
            assert block_error(model(kind, n=n, tau=tau)) <= 1e-10

    @pytest.mark.parametrize("kind", [ModelKind.ISING_1D, ModelKind.XY_1D])
    def test_repeated_blocks_compose_exactly(self, kind):
        m = model(kind, n=4, tau=0.4, reps=3)
        u = schedule_unitary(compile_model(m))
        ref = expm_hermitian(target_hamiltonian(m), 3 * 0.4)
        assert phase_insensitive_distance(u, ref) <= 1e-10


class TestTrotterErrors:
    def test_heisenberg_quadratic_in_tau(self):
        m = model(ModelKind.HEISENBERG_1D, n=4)
        ratios = [block_error(m, tau) / tau**2 for tau in (0.02, 0.01, 0.005)]
        assert max(ratios) / min(ratios) <= 1.1

    def test_heisenberg_error_grows_at_most_linearly_in_blocks(self):
        tau = 0.05
        errs = []
        for reps in (1, 4):
            m = model(ModelKind.HEISENBERG_1D, n=4, tau=tau, reps=reps)
            u = schedule_unitary(compile_model(m))
            ref = expm_hermitian(target_hamiltonian(m), reps * tau)
            errs.append(phase_insensitive_distance(u, ref))
        assert errs[1] <= 4 * errs[0] * 1.2

    def test_xy2d_block_consistent_with_commutator_bound(self):
        lat = Lattice.square(2, 4, boundary="periodic")
        m = TargetModel(ModelKind.XY_2D, lat, j=1.0, tau=0.1)
        err = block_error(m)
        from crda.pauli import commutator, spectral_norm

        c = commutator(
            build_canonical(K.H_I, lat), build_canonical(K.H_II, lat)
        )
        bound = 0.5 * 0.1**2 * spectral_norm(c)
        assert 0 < err <= bound * 1.05

    def test_xy2d_quadratic_scaling(self):
        lat = Lattice.square(2, 4, boundary="periodic")
        m = TargetModel(ModelKind.XY_2D, lat, j=1.0, tau=0.1)
        e1 = block_error(m, 0.05)
        e2 = block_error(m, 0.025)
        assert np.isclose(e1 / e2, 4.0, rtol=0.25)


class TestFusion:
    def test_ising_middle_hadamards_cancel(self):
        s = fuse(compile_model(model(ModelKind.ISING_1D)))
        kinds = [
            step.kind.value if isinstance(step, GateLayer) else "analog"
            for step in s.steps
        ]
        assert kinds == ["h", "analog", "analog", "h"]

    def test_fusion_preserves_unitary(self):
        for kind in ModelKind:
            m = model(kind, n=4, ny=2 if kind is ModelKind.XY_2D else None, tau=0.2)
            s = compile_model(m)
            sf = fuse(s)
            assert len(sf.steps) <= len(s.steps)
            assert (
                phase_insensitive_distance(block_unitary(s), block_unitary(sf)) <= 1e-12
            )

    def test_disjoint_same_kind_layers_merge(self):
        s = Schedule(
            n=4,
            steps=(
                GateLayer(G.HADAMARD, "even"),
                GateLayer(G.HADAMARD, "odd"),
            ),
        )
        sf = fuse(s)
        assert len(sf.steps) == 1
        assert sf.steps[0].support == "all"


class TestSimulate:
    def test_ising_ground_state_is_stationary(self):
        m = model(ModelKind.ISING_1D, n=4, tau=0.3, reps=5)
        s = compile_model(m)
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        obs = [PauliSum.from_sites(4, {k: "Z"}) for k in range(4)]
        trace = simulate(s, psi0, obs)
        assert np.allclose(trace.expectations, 1.0, atol=1e-10)
        assert np.allclose(trace.norms, 1.0, atol=1e-10)

    def test_xy_conserves_total_magnetization(self):
        n = 4
        m = model(ModelKind.XY_1D, n=n, tau=0.25, reps=6)
        s = compile_model(m)
        psi0 = np.zeros(1 << n, dtype=complex)
        psi0[1] = 1.0  # one flipped spin at site 1
        sz = PauliSum.zero(n)
        for k in range(n):
            sz = sz + PauliSum.from_sites(n, {k: "Z"})
        trace = simulate(s, psi0, [sz])
        assert np.allclose(trace.expectations[:, 0], n - 2, atol=1e-10)

    def test_heisenberg_observables_converge_linearly_in_tau(self):
        n, total = 4, 0.8
        target = build_canonical(K.H_HEIS, Lattice.chain(n), 1.0)
        psi0 = np.zeros(1 << n, dtype=complex)
        psi0[0b0110] = 1.0
        obs = PauliSum.from_sites(n, {0: "Z"})
        u = expm_hermitian(target, total)
        exact = float(np.vdot(u @ psi0, obs.apply(u @ psi0)).real)
        errs = []
        for reps in (8, 16):
            m = model(ModelKind.HEISENBERG_1D, n=n, tau=total / reps, reps=reps)
            trace = simulate(compile_model(m), psi0, [obs])
            errs.append(abs(trace.expectations[-1, 0] - exact))
        assert errs[1] <= errs[0] * 0.75  # roughly halves per tau halving

    def test_matrix_free_path_above_dense_limit(self):
        n = 13
        m = model(ModelKind.ISING_1D, n=n, tau=0.2, reps=2)
        s = compile_model(m)
        psi0 = np.zeros(1 << n, dtype=complex)
        psi0[0] = 1.0
        sz = PauliSum.zero(n)
        for k in range(n):
            sz = sz + PauliSum.from_sites(n, {k: "Z"})
        trace = simulate(s, psi0, [sz], dense_limit=10)
        assert np.allclose(trace.norms, 1.0, atol=1e-10)
        assert np.allclose(trace.expectations[:, 0], n, atol=1e-9)

    def test_size_validation(self):
        s = compile_model(model(ModelKind.ISING_1D, n=3))
        with pytest.raises(ValueError):
            simulate(s, np.zeros(4, dtype=complex), [])


class TestRealisticMode:
    def test_segments_become_time_dependent(self):
        p = DeviceParams.uniform_chain(4, g=1.0, delta=10.0, Omega=0.4)
        m = model(ModelKind.XY_1D, n=4, tau=0.05)
        s = compile_model(m, realistic=True, device=p)
        assert all(
            isinstance(seg.analog, TimeDependentHamiltonian) for seg in s.segments()
        )
        u = block_unitary(s, tol=1e-9)
        assert unitarity_defect(u) <= 1e-8

    def test_xy_block_close_to_ideal_block(self):
        # Each XY segment drives the control chain, so realistic mode runs
        # the control chain's original inside the frames. At g/Omega = 0.05
        # and the matching j = -g Omega / (4 delta) the block lands about
        # 0.03 from the ideal one; wrapping an already toggled original in
        # the frames again puts it about 1.8 away.
        n, delta, omega, g = 3, 40.0, 8.0, 0.4
        p = DeviceParams.uniform_chain(n, g=g, delta=delta, Omega=omega)
        m = model(ModelKind.XY_1D, n=n, j=-g * omega / (4 * delta), tau=20.0)
        u = block_unitary(compile_model(m, realistic=True, device=p))
        assert phase_insensitive_distance(u, block_unitary(compile_model(m))) < 0.05

    def test_unsupported_model_rejected(self):
        p = DeviceParams.uniform_chain(4, g=1.0, delta=10.0, Omega=0.4)
        with pytest.raises(ValueError):
            compile_model(model(ModelKind.HEISENBERG_1D), realistic=True, device=p)

    def test_device_required(self):
        with pytest.raises(ValueError):
            compile_model(model(ModelKind.ISING_1D), realistic=True)


class TestScheduleExport:
    def test_json_shape(self):
        s = compile_model(model(ModelKind.HEISENBERG_1D, tau=0.2))
        d = s.to_json_dict()
        assert d["n"] == 4 and d["model"] == "heisenberg"
        assert sum(1 for step in d["steps"] if step["type"] == "analog") == 3
        gate = next(step for step in d["steps"] if step["type"] == "gate")
        assert {"type", "kind", "support"} <= set(gate)
