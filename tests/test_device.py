"""Device parameters, lattices, and configuration files."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from crda.device import (
    DeviceParams,
    DriveConfig,
    Lattice,
    effective_coupling,
    load_config,
)
from crda.pauli import DenseLimitError


def uniform(n=2, g=1.0, delta=10.0, Omega=0.4):
    return DeviceParams.uniform_chain(n, g=g, delta=delta, Omega=Omega)


class TestEffectiveCoupling:
    def test_reference_value(self):
        assert effective_coupling(uniform(g=1.0, delta=10.0, Omega=0.4), 1) == -0.01

    def test_undriven_control_gives_zero(self):
        assert effective_coupling(uniform(Omega=0.0), 1) == 0.0

    def test_sign_flip_with_detuning(self):
        assert effective_coupling(uniform(g=2.0, delta=-5.0, Omega=0.2), 1) == 0.02

    def test_zero_detuning_is_an_error(self):
        p = uniform(delta=0.0)
        with pytest.raises(ZeroDivisionError):
            effective_coupling(p, 1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_bond_outside_the_chain_refused(self, k):
        # three sites have bonds 1 and 2; there is no wrap bond 3
        with pytest.raises(ValueError, match=rf"bond index {k} outside 1\.\.2"):
            effective_coupling(uniform(n=3), k)

    def test_antisymmetric_and_linear(self, rng):
        for _ in range(10):
            g, d, om = rng.uniform(0.1, 2, 3)
            j = effective_coupling(uniform(g=g, delta=d, Omega=om), 1)
            assert np.isclose(
                effective_coupling(uniform(g=g, delta=-d, Omega=om), 1), -j
            )
            assert np.isclose(
                effective_coupling(uniform(g=2 * g, delta=d, Omega=om), 1), 2 * j
            )
            assert np.isclose(
                effective_coupling(uniform(g=g, delta=d, Omega=3 * om), 1), 3 * j
            )

    def test_uniform_chain_has_single_coupling(self):
        p = uniform(n=5)
        js = {effective_coupling(p, k) for k in range(1, 5)}
        assert len(js) == 1
        g, d, om = p.uniform()
        assert (g, d, om) == (1.0, 10.0, 0.4)


class TestDeviceFields:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["omega_q", "omega", "Omega", "phi", "g"])
    def test_non_finite_field_refused(self, field, bad):
        # even a phase no bond reads (qubit 3 is an undriven target)
        fields = {
            "omega_q": np.full(3, 10.0),
            "omega": np.array([0.0, 10.0, 10.0]),
            "Omega": np.array([0.5, 0.0, 0.0]),
            "phi": np.array([0.3, 0.0, 0.0]),
            "g": np.ones(2),
        }
        fields[field][-1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            DeviceParams(n=3, **fields)

    @pytest.mark.parametrize(
        "field, size, match",
        [
            ("omega_q", 2, "omega_q must have length n=3"),
            ("phi", 4, "phi must have length n=3"),
            ("g", 3, "g must have length n-1=2"),  # one coupling per site: a wrap bond no chain models
            ("g", 1, "g must have length n-1=2"),
        ],
    )
    def test_wrong_length_refused(self, field, size, match):
        fields = {name: np.ones(3) for name in ("omega_q", "omega", "Omega", "phi")}
        fields["g"] = np.ones(2)
        fields[field] = np.ones(size)
        with pytest.raises(ValueError, match=f"^{match}$"):
            DeviceParams(n=3, **fields)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: DeviceParams.uniform_chain(n, g=1.0, delta=10.0, Omega=0.5),
            lambda n: DeviceParams.from_config({"n": n, "omega_q": 40.0, "g": 0.2}),
        ],
    )
    def test_huge_device_refused_before_allocating(self, make):
        # five arrays of 10^9 float64 values would take 37 GiB
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match=r"1000000000-site device needs about 37\.3 GiB"):
                make(10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("field", ["omega_q", "Omega", "g"])
    def test_non_finite_per_site_value_refused(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            DeviceParams.from_config({"n": 3, "omega_q": 40.0, f"{field}.2": "inf"})

    def test_xi_regular_in_undriven_limit(self):
        p = DeviceParams.uniform_chain(1, g=0.0, delta=3.0, Omega=0.0)
        # singular tangent ratio, regular two-argument angle
        assert np.isclose(p.xi[0], np.pi / 2)
        assert p.eta[0] == 3.0


class TestCrChain:
    def test_targets_are_parked(self):
        omega_q = np.array([50.0, 40.0, 30.0])
        p = DeviceParams.cr_chain(omega_q, g=0.2, Omega=0.5)
        assert np.allclose(p.omega[:2], omega_q[1:])
        assert p.Omega[2] == 0.0 and p.delta[2] == 0.0 and p.phi[2] == 0.0

    def test_odd_drive_layout(self):
        omega_q = np.array([50.0, 40.0, 30.0, 20.0])
        p = DeviceParams.cr_chain(omega_q, g=0.2, Omega=0.5, drive=DriveConfig.ODD)
        assert p.Omega[0] != 0 and p.Omega[2] != 0
        assert p.Omega[1] == 0 and p.Omega[3] == 0
        assert p.delta[1] == 0.0

    def test_even_drive_layout(self):
        # sites 2 and 4 drive their right neighbours; site 4 has none
        omega_q = np.array([50.0, 40.0, 30.0, 20.0])
        p = DeviceParams.cr_chain(omega_q, g=0.2, Omega=0.5, drive=DriveConfig.EVEN)
        assert p.Omega.tolist() == [0.0, 0.5, 0.0, 0.0]
        assert p.omega.tolist() == [50.0, 30.0, 30.0, 20.0]
        assert p.delta.tolist() == [0.0, 10.0, 0.0, 0.0]


class TestLattice:
    def test_chain_bonds_open_and_periodic(self):
        # bond k joins 0-based sites (k - 1, k) and is odd for odd k
        assert list(Lattice.chain(4).bonds()) == [(0, 1, True), (1, 2, False), (2, 3, True)]
        assert list(Lattice.chain(4, "periodic").bonds()) == [
            (0, 1, True),
            (1, 2, False),
            (2, 3, True),
            (3, 0, False),
        ]

    def test_square_bonds_walk_x_then_y_on_the_checkerboard(self):
        assert list(Lattice.square(2, 2, boundary="open").bonds()) == [
            (0, 1, True),
            (0, 2, True),
            (1, 3, False),
            (2, 3, False),
        ]
        # a periodic extent of 2 doubles the wrap bond; a site is not its own neighbour
        assert list(Lattice.square(2, 1).bonds()) == [(0, 1, True), (1, 0, False)]
        assert list(Lattice.square(1, 1).bonds()) == []
        assert list(Lattice.chain(1, "periodic").bonds()) == []

    def test_site_index_row_major(self):
        lat = Lattice.square(3, 2, boundary="open")
        assert lat.site_index(1, 1) == 0
        assert lat.site_index(3, 1) == 2
        assert lat.site_index(1, 2) == 3
        assert lat.site_index(3, 2) == 5

    def test_periodic_wrap(self):
        lat = Lattice.square(4, 4)
        assert lat.site_index(5, 1) == lat.site_index(1, 1)
        assert lat.site_index(0, 2) == lat.site_index(4, 2)

    def test_open_range_check(self):
        lat = Lattice.square(2, 2, boundary="open")
        with pytest.raises(ValueError):
            lat.site_index(3, 1)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"dim": 3, "nx": 2}, "dim must be 1 or 2"),
            ({"dim": 1, "nx": 2, "boundary": "twisted"}, "boundary must be"),
            ({"dim": 1, "nx": 2, "ny": 2}, "1D lattice must have ny = 1"),
            ({"dim": 2, "nx": 2, "ny": 0}, "extents must be positive"),
        ],
    )
    def test_malformed_lattice_refused(self, fields, match):
        with pytest.raises(ValueError, match=match):
            Lattice(**fields)

    def test_even_extent_requirement(self):
        with pytest.raises(ValueError):
            Lattice.square(3, 4).require_even_extents()
        Lattice.square(4, 4).require_even_extents()


class TestConfigFiles:
    def test_flat_file(self, tmp_path):
        cfg_file = tmp_path / "device.cfg"
        cfg_file.write_text(
            "# demo chain\n"
            "n = 3\n"
            "omega_q = 40.0\n"
            "omega_q.1 = 45.0\n"
            "Omega = 0.5\n"
            "g = 0.2\n"
            "g.2 = 0.3\n"
            "tau = 0.1\n"
            "M = 4\n"
            "J = -0.01\n"
        )
        cfg = load_config(cfg_file)
        p = DeviceParams.from_config(cfg)
        assert p.n == 3
        assert p.omega_q[0] == 45.0 and p.omega_q[1] == 40.0
        assert np.allclose(p.g, [0.2, 0.3])

    def test_json_file(self, tmp_path):
        cfg_file = tmp_path / "device.json"
        cfg_file.write_text(json.dumps({"n": 2, "omega_q": 40.0, "g": 0.2, "tau": 0.5}))
        p = DeviceParams.from_config(load_config(cfg_file))
        assert p.n == 2 and p.g[0] == 0.2

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("n 3\n")
        with pytest.raises(ValueError):
            load_config(cfg_file)
