"""Gate layers, symbolic toggling, frame pipeline, and integrator checks."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import GATES, dense_oracle, kron_pattern, random_pauli_sum
from crda.device import DeviceParams, Lattice
from crda import frames
from crda.frames import (
    GateLayer,
    GateLayerKind as G,
    apply_layer,
    compose_kinds,
    frame_pipeline_unitary,
    layer_unitary,
    phase_insensitive_distance,
    propagate_unitary,
    rot_frame_unitary,
    toggle,
    toggle_chain,
    u3_unitary,
    u4_unitary,
    u12_unitary,
    unitarity_defect,
    uqf_approx,
    verify_effective,
)
from crda.hamiltonians import (
    HamiltonianKind as K,
    TimeDependentHamiltonian,
    build_canonical,
    org_hamiltonian,
)
from crda.pauli import DenseLimitError, PauliSum, expm_hermitian


class TestLayerUnitaries:
    def test_hadamard_matrix(self):
        u = layer_unitary(GateLayer(G.HADAMARD, "all"), 1)
        assert np.allclose(u, (kron_pattern("X") + kron_pattern("Z")) / np.sqrt(2))
        assert np.allclose(u @ u, np.eye(2))

    def test_axis_cycle_closed_form(self):
        u = layer_unitary(GateLayer(G.UE, "all"), 1)
        want = 0.5 * (
            np.eye(2) - 1j * (kron_pattern("X") + kron_pattern("Y") + kron_pattern("Z"))
        )
        assert np.allclose(u, want)

    def test_axis_cycle_cubes_to_minus_identity(self):
        u = layer_unitary(GateLayer(G.UE, "all"), 1)
        assert np.allclose(u @ u @ u, -np.eye(2), atol=1e-12)
        # the sign is per site: an even support squares it away
        u2 = layer_unitary(GateLayer(G.UE, "all"), 2)
        assert np.allclose(np.linalg.matrix_power(u2, 3), np.eye(4), atol=1e-12)

    def test_axis_cycle_euler_decomposition(self):
        u = layer_unitary(GateLayer(G.UE, "all"), 1)
        ry = expm_hermitian(PauliSum.from_pattern("Y"), np.pi / 4)
        rz = expm_hermitian(PauliSum.from_pattern("Z"), np.pi / 4)
        assert np.allclose(u, ry @ rz, atol=1e-12)

    def test_support_resolution(self):
        u_even = layer_unitary(GateLayer(G.HADAMARD, "even"), 2)
        h1 = layer_unitary(GateLayer(G.HADAMARD, (2,)), 2)
        assert np.allclose(u_even, h1)
        with pytest.raises(ValueError):
            GateLayer(G.HADAMARD, (3,)).sites(2)

    @pytest.mark.parametrize("kind", [G.HADAMARD, G.IDENTITY])
    def test_repeated_site_rejected_everywhere(self, kind):
        # (1, 1) once landed on site 2 in toggle, applied H twice in
        # apply_layer and once in layer_unitary
        layer = GateLayer(kind, (1, 1))
        with pytest.raises(ValueError, match="repeated site"):
            layer.sites(2)
        with pytest.raises(ValueError, match="repeated site"):
            toggle(PauliSum.from_pattern("ZI"), layer)
        with pytest.raises(ValueError, match="repeated site"):
            apply_layer(layer, np.eye(4)[0], 2)
        with pytest.raises(ValueError, match="repeated site"):
            layer_unitary(layer, 2)

    def test_apply_layer_matches_dense(self, rng):
        for kind in (G.HADAMARD, G.RX90, G.UE, G.SPHASE):
            for support in ("all", "even", "odd", (1, 3)):
                lay = GateLayer(kind, support)
                v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                assert np.allclose(
                    apply_layer(lay, v, 3), layer_unitary(lay, 3) @ v, atol=1e-12
                )
                # a (2^n, m) array: the layer acts on each column
                m = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
                out = apply_layer(lay, m, 3)
                assert out.shape == (8, 5)
                for col in range(5):
                    assert np.allclose(out[:, col], apply_layer(lay, m[:, col], 3), atol=1e-12)
                    assert np.allclose(out[:, col], layer_unitary(lay, 3) @ m[:, col], atol=1e-12)

    def test_compose_kinds_table(self):
        assert compose_kinds(G.HADAMARD, G.HADAMARD) is G.IDENTITY
        assert compose_kinds(G.RX90, G.RX90DAG) is G.IDENTITY
        assert compose_kinds(G.UE, G.UE) is G.UE2
        assert compose_kinds(G.UE2DAG, G.UE) is G.UEDAG
        assert compose_kinds(G.UE, G.UE2) is None  # global sign, not a layer
        assert compose_kinds(G.RX90, G.RX90) is None
        # composed matrices agree where a single kind is claimed
        for a in G:
            for b in G:
                k = compose_kinds(a, b)
                if k is None:
                    continue
                ua = layer_unitary(GateLayer(a, "all"), 1)
                ub = layer_unitary(GateLayer(b, "all"), 1)
                uk = layer_unitary(GateLayer(k, "all"), 1)
                assert np.allclose(ub @ ua, uk, atol=1e-12), (a, b, k)

    def test_compose_kinds_finds_every_exact_product(self):
        # a kind comes back exactly when some kind's matrix is the product
        for a in G:
            for b in G:
                product = GATES[b.value] @ GATES[a.value]
                exact = [k for k in G if np.allclose(GATES[k.value], product, rtol=0, atol=1e-12)]
                got = compose_kinds(a, b)
                assert exact == ([] if got is None else [got]), (a, b)
        assert compose_kinds(G.RX90, G.SPHASE) is G.UE
        assert compose_kinds(G.RX90DAG, G.UE) is G.SPHASE
        assert compose_kinds(G.SPHASE, G.UEDAG) is G.RX90DAG

    def test_inverse_layers(self):
        for kind in G:
            if kind is G.SPHASE:
                with pytest.raises(ValueError):
                    GateLayer(kind, "odd").inverse()
                continue
            inv = GateLayer(kind, "odd").inverse()
            assert inv.support == "odd"
            assert np.allclose(GATES[inv.kind.value] @ GATES[kind.value], np.eye(2), atol=1e-12)


class TestToggle:
    def test_hadamard_swaps_chain_letters(self):
        lat = Lattice.chain(5)
        h = build_canonical(K.CONTROL, lat, 1.3)
        got = toggle(h, GateLayer(G.HADAMARD, "all"))
        want = PauliSum(5)
        for k in range(4):
            want = want + PauliSum.from_sites(5, {k: "Z", k + 1: "X"}, 1.3)
        assert got.allclose(want)

    def test_axis_cycle_on_even_chain(self):
        lat = Lattice.chain(6)
        he = build_canonical(K.H_E, lat)
        assert toggle(he, GateLayer(G.UE, "all")) == build_canonical(K.H_E_PRIME, lat)
        assert toggle(he, GateLayer(G.UE2, "all")) == build_canonical(
            K.H_E_DOUBLE_PRIME, lat
        )

    def test_quarter_rotation_recovers_2d_decomposition(self):
        lat = Lattice.square(4, 4)
        assert toggle(
            build_canonical(K.H_2D_EVEN, lat), GateLayer(G.RX90, "all")
        ) == build_canonical(K.H_I, lat)
        assert toggle(
            build_canonical(K.H_2D_ODD, lat), GateLayer(G.RX90, "all")
        ) == build_canonical(K.H_II, lat)

    def test_dense_consistency(self, rng):
        for kind in G:
            for support in ("all", "even", (1, 4)):
                lay = GateLayer(kind, support)
                h = random_pauli_sum(rng, 4)
                u = layer_unitary(lay, 4)
                assert np.allclose(
                    dense_oracle(toggle(h, lay)),
                    u.conj().T @ dense_oracle(h) @ u,
                    atol=1e-12,
                )

    def test_preserves_hermiticity_and_norm(self, rng):
        h = random_pauli_sum(rng, 5, real=True)
        for kind in (G.HADAMARD, G.RX90, G.UE, G.SPHASE):
            t = toggle(h, GateLayer(kind, "odd"))
            assert t.is_hermitian()
            assert np.isclose(
                t.frobenius_norm(normalized=True), h.frobenius_norm(normalized=True)
            )

    def test_hadamard_is_involution(self, rng):
        h = random_pauli_sum(rng, 4)
        lay = GateLayer(G.HADAMARD, "all")
        assert toggle(toggle(h, lay), lay).allclose(h)

    def test_axis_cycle_triple_is_identity_map(self, rng):
        h = random_pauli_sum(rng, 4)
        lay = GateLayer(G.UE, "all")
        assert toggle(toggle(toggle(h, lay), lay), lay).allclose(h)

    def test_per_site_cycle_direction(self):
        lay = GateLayer(G.UE, "all")
        assert toggle(PauliSum.from_pattern("X"), lay) == PauliSum.from_pattern("Z")
        assert toggle(PauliSum.from_pattern("Y"), lay) == PauliSum.from_pattern("X")
        assert toggle(PauliSum.from_pattern("Z"), lay) == PauliSum.from_pattern("Y")

    def test_toggle_chain_order(self, rng):
        h = random_pauli_sum(rng, 3)
        l1 = GateLayer(G.RX90, "all")
        l2 = GateLayer(G.HADAMARD, "even")
        got = toggle_chain(h, [l1, l2])
        u = layer_unitary(l1, 3) @ layer_unitary(l2, 3)  # first layer innermost
        assert np.allclose(dense_oracle(got), u.conj().T @ dense_oracle(h) @ u)


def ladder(n=2, delta=5.0, base=40.0, g=0.1, Omega=0.25):
    omega_q = np.array([base + (n - k) * delta for k in range(1, n + 1)])
    return DeviceParams(
        n=n,
        omega_q=omega_q,
        omega=omega_q - delta,
        Omega=np.full(n, Omega),
        phi=np.zeros(n),
        g=np.full(n - 1, g),
    )


class TestFramePipeline:
    def test_identity_limits_at_t0(self):
        p = DeviceParams.cr_chain(np.array([50.0, 40.0]), g=0.1, Omega=0.5)
        assert np.allclose(u12_unitary(p, 0.0), np.eye(4))  # phi = 0
        assert np.allclose(u4_unitary(p, 0.0), np.eye(4))

    def test_undriven_qubit_tilt_angle(self):
        p = DeviceParams.uniform_chain(1, g=0.0, delta=3.0, Omega=0.0)
        assert np.isclose(p.xi[0], np.pi / 2)
        want = expm_hermitian(PauliSum.from_pattern("Y"), -np.pi / 4)  # e^{+i pi y/4}
        assert np.allclose(u3_unitary(p), want, atol=1e-12)

    def test_pipeline_unitarity(self, rng):
        p = ladder(3)
        for t in rng.uniform(0, 5, 4):
            assert unitarity_defect(frame_pipeline_unitary(p, float(t))) <= 1e-12

    def test_factor_derivative_identities(self):
        # -i U† dU/dt must equal the analytic frame generator of each factor
        p = ladder(2)
        eps = 1e-6
        for t in (0.3, 1.7):
            for factory, gen_terms in (
                (u12_unitary, [(0.5 * w, "Z", k) for k, w in enumerate(p.omega)]),
                (u4_unitary, [(0.5 * e, "X", k) for k, e in enumerate(p.eta)]),
            ):
                du = (factory(p, t + eps) - factory(p, t - eps)) / (2 * eps)
                u = factory(p, t)
                got = -1j * u.conj().T @ du
                want = np.zeros((4, 4), dtype=complex)
                for w, letter, k in gen_terms:
                    ps = PauliSum.from_sites(2, {k: letter}, w)
                    want -= dense_oracle(ps)
                assert np.allclose(got, want, atol=1e-6)


class TestUqfApprox:
    def test_zero_ratio_limit_is_exactly_unitary(self):
        p = DeviceParams.cr_chain(np.array([50.0, 40.0]), g=0.1, Omega=1e-30)
        p = DeviceParams(
            n=2, omega_q=p.omega_q, omega=p.omega, Omega=np.zeros(2), phi=p.phi, g=p.g
        )
        u = uqf_approx(p, 0.7)
        assert np.allclose(u, np.eye(4))  # no driven qubits at all

    def test_leading_term_per_driven_qubit(self):
        p = DeviceParams.cr_chain(np.array([50.0, 40.0]), g=0.1, Omega=1e-12)
        u = uqf_approx(p, 0.0)
        per = (np.eye(2) + 1j * kron_pattern("Y")) / np.sqrt(2)
        assert np.allclose(u, np.kron(np.eye(2), per), atol=1e-10)

    def test_defect_level_and_scaling(self):
        delta = 10.0
        defects = []
        for ratio in (0.1, 0.05):
            p = DeviceParams.cr_chain(np.array([delta + 40.0, 40.0]), g=0.1, Omega=ratio * delta)
            ds = [
                unitarity_defect(uqf_approx(p, t))
                for t in np.linspace(0.0, 2 * np.pi / delta, 9)
            ]
            assert max(ds) - min(ds) <= 1e-12  # defect is time independent
            defects.append(max(ds))
        assert defects[0] <= 0.02
        assert np.isclose(defects[0] / defects[1], 4.0, atol=0.5)


class TestPropagator:
    def test_static_generator_matches_expm(self, rng):
        h = random_pauli_sum(rng, 2, real=True)
        gen = TimeDependentHamiltonian(2, ((h, ()),))
        u, info = propagate_unitary(gen, 0.9)
        assert np.allclose(u, expm_hermitian(h, 0.9), atol=1e-9)
        assert info["residual"] < 1e-8

    def test_commuting_time_dependence_matches_phase_integral(self):
        z = PauliSum.from_pattern("Z")
        gen = TimeDependentHamiltonian(1, ((z, (("cos", 3.0, 0.0),)),))
        t = 2.2
        u, _ = propagate_unitary(gen, t)
        phase = np.sin(3 * t) / 3.0
        assert np.allclose(u, np.diag([np.exp(-1j * phase), np.exp(1j * phase)]), atol=1e-9)

    def test_zero_span(self):
        z = PauliSum.from_pattern("Z")
        gen = TimeDependentHamiltonian(1, ((z, ()),))
        u, _ = propagate_unitary(gen, 0.0)
        assert np.allclose(u, np.eye(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "pieces",
        [
            ((1e300, ()),),
            # each piece's square fits float64; the norm bound 2e154's does not
            ((1e154, ()), (1e154, (("cos", 3.0, 0.0),))),
        ],
    )
    def test_overflowing_magnus_exponent_refused(self, pieces):
        gen = TimeDependentHamiltonian(
            1, tuple((c * PauliSum.from_pattern(s), w) for s, (c, w) in zip("ZX", pieces))
        )
        with pytest.raises(ValueError, match="Magnus exponent overflows"):
            propagate_unitary(gen, 1.0)


class TestMagnusPlan:
    @pytest.mark.parametrize(
        ("weight", "t_final", "rule", "steps"),
        [
            ((), 3.0, "norm", 30),  # 0.2 / R with R = 2
            ((("cos", 50.0, 0.0),), 3.0, "frequency", 955),  # 40 steps a period
            ((("cos", 50.0, 0.0),), 1e-3, "span", 1),
            ((("cos", 50.0, 0.0),), -3.0, "frequency", 955),
        ],
    )
    def test_first_rung(self, weight, t_final, rule, steps):
        h = PauliSum.from_pattern("XZ", 1.5) + PauliSum.from_pattern("ZI", -0.5)
        plan = frames._magnus_plan(TimeDependentHamiltonian(2, ((h, weight),)), t_final, 1e-8)
        assert (plan.rule, plan.steps) == (rule, steps)
        assert plan.step_size == abs(t_final) / steps
        # a step on 2 qubits is priced at the floor, not at dim^3 = 64
        assert frames._MAGNUS_STEP_FLOOR > 64
        assert plan.work == tuple(steps * 2**k * frames._MAGNUS_STEP_FLOOR for k in range(frames._MAGNUS_HALVINGS + 1))

    def test_propagator_starts_at_the_plan(self):
        z = PauliSum.from_pattern("Z")
        gen = TimeDependentHamiltonian(1, ((z, (("cos", 3.0, 0.0),)),))
        plan = frames._magnus_plan(gen, 2.2, 1e-8)
        _, info = propagate_unitary(gen, 2.2)
        assert info["steps"] in {plan.steps << k for k in range(1, len(plan.work))}

    @pytest.mark.parametrize("tol", [1e-15, 1e-300, math.nan])
    def test_tolerance_below_floor_refused(self, tol):
        gen = TimeDependentHamiltonian(1, ((PauliSum.from_pattern("Z"), ()),))
        with pytest.raises(ValueError, match="below the Magnus floor"):
            propagate_unitary(gen, 1.0, tol=tol)
        u, _ = propagate_unitary(gen, 1.0, tol=frames._MAGNUS_TOL_FLOOR)
        assert np.allclose(u, np.diag(np.exp([-1j, 1j])), atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        ("coeff", "omega", "t_final"),
        [(1.0, 40.0, 1e300), (1e150, 0.0, 1.0), (1.0, 1e300, 1e10), (1.0, 0.0, math.inf)],
        ids=["span", "norm", "frequency", "infinite-span"],
    )
    def test_ladder_over_budget_refused_before_allocating(self, coeff, omega, t_final):
        # on 8 qubits one dense piece takes 1 MiB and one step stack 4 MiB
        weight = (("cos", omega, 0.0),) if omega else ()
        gen = TimeDependentHamiltonian(8, ((PauliSum.from_pattern("XZIIIIII", coeff), weight),))
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match="budget"):
                propagate_unitary(gen, t_final)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize(
        ("kind", "steps", "rule"), [(K.ORG, 13, "frequency"), (K.ORG_ZZ, 17, "norm")]
    )
    def test_budget_admits_a_default_realistic_segment_at_the_dense_limit(
        self, kind, steps, rule
    ):
        # simulate --realistic's default device and tau on 12 qubits (xy1d, ising);
        # no matrix is built
        p = DeviceParams.uniform_chain(12, g=1.0, delta=10.0, Omega=0.4)
        plan = frames._magnus_plan(org_hamiltonian(kind, p), 0.1, 1e-10)
        assert (plan.steps, plan.rule) == (steps, rule)
        plan.check_budget(6)  # five doublings, where the corpus runs stop at one

    def test_later_rung_over_budget_stops_the_ladder(self, monkeypatch):
        # a budget of the first two rungs and no more: the third is refused before it runs
        z = PauliSum.from_pattern("Z")
        gen = TimeDependentHamiltonian(1, ((z, (("cos", 3.0, 0.0),)),))
        plan = frames._magnus_plan(gen, 2.2, 1e-8)
        monkeypatch.setattr(frames, "_MAGNUS_WORK_BUDGET", sum(plan.work[:2]))
        runs = []
        run = frames._ordered_product
        monkeypatch.setattr(frames, "_ordered_product", lambda u: runs.append(len(u)) or run(u))
        with pytest.raises(DenseLimitError, match="over 3 rungs"):
            propagate_unitary(gen, 2.2, tol=1e-14)
        assert runs == [plan.steps, 2 * plan.steps]


class TestVerifyEffective:
    def test_decoupled_rotating_frame_is_exact(self):
        p = ladder(2, g=0.0)
        rep = verify_effective(p, 1.5, mode="rotating")
        assert rep.distance <= 1e-7

    def test_lab_mode_weak_coupling(self):
        p = ladder(2)
        rep = verify_effective(p, 2 * np.pi / 5.0, mode="lab")
        assert rep.distance <= 0.05
        assert np.isclose(rep.distance, rep.distance_lab_mapping, atol=1e-9)

    def test_both_mappings_agree(self):
        p = ladder(2)
        rep = verify_effective(p, 0.8, mode="rotating")
        assert np.isclose(rep.distance, rep.distance_lab_mapping, atol=1e-9)

    def test_rot_frame_factor_shape(self):
        p = ladder(2)
        f = rot_frame_unitary(p, 0.4)
        assert unitarity_defect(f) <= 1e-12


class TestPhaseInsensitiveDistance:
    def test_global_phase_ignored(self, rng):
        h = random_pauli_sum(rng, 2, real=True)
        u = expm_hermitian(h, 0.6)
        assert phase_insensitive_distance(u, np.exp(0.321j) * u) <= 1e-12

    def test_detects_real_difference(self, rng):
        h = random_pauli_sum(rng, 2, real=True)
        u = expm_hermitian(h, 0.6)
        v = expm_hermitian(h, 0.9)
        assert phase_insensitive_distance(u, v) > 1e-3
