"""Property tests of time-dependent Hamiltonians: weights as sinusoid data.

Weights are checked against a per-time ``math`` evaluation
(``conftest.sinusoid_product``), the derived frequencies against the
frequencies each family is built from, and the piece-integrated Dyson
integral against a quadrature sum of per-node snapshots.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import sinusoid_product
from crda.device import DeviceParams
from crda.errors import dyson_propagator_diff
from crda.hamiltonians import (
    HamiltonianKind as K,
    delta_hamiltonian,
    lab_frame_hamiltonian,
    org_hamiltonian,
    rotating_frame_hamiltonian,
)
from crda.pauli import PauliSum

_ORG_KINDS = (K.ORG, K.ORG_XY, K.ORG_ZZ)
_DELTA_KINDS = (K.DELTA_H, K.DELTA_XY, K.DELTA_ZZ)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _signed(lo, hi):
    return _floats(lo, hi).flatmap(lambda v: st.sampled_from([v, -v]))


_TIMES = st.lists(_floats(0.0, 3.0), min_size=1, max_size=6)


@st.composite
def uniform_devices(draw):
    """Detuning of either sign; coupling bounded away from zero, as the
    snapshot reference of the Dyson test prunes each node's coefficients
    below PRUNE_TOL and so loses digits for couplings near 1e-7."""
    return DeviceParams.uniform_chain(
        draw(st.integers(2, 5)),
        g=draw(_signed(0.05, 2.0)),
        delta=draw(_signed(0.5, 30.0)),
        Omega=draw(_floats(0.0, 3.0)),
        phi=draw(_floats(-math.pi, math.pi)),
        omega=draw(_floats(-50.0, 50.0)),
    )


@st.composite
def chains(draw):
    """Per-site drive frequencies and phases; some drives and bonds off."""
    n = draw(st.integers(1, 4))
    per_site = st.lists(_floats(-60.0, 60.0), min_size=n, max_size=n)
    off_or = lambda s: st.just(0.0) | s  # noqa: E731
    return DeviceParams(
        n=n,
        omega_q=draw(per_site),
        omega=draw(per_site),
        Omega=draw(st.lists(off_or(_floats(-2.0, 2.0)), min_size=n, max_size=n)),
        phi=draw(st.lists(_floats(-math.pi, math.pi), min_size=n, max_size=n)),
        g=draw(st.lists(off_or(_floats(-1.0, 1.0)), min_size=n - 1, max_size=n - 1)),
    )


def _generators(p: DeviceParams):
    """Every time-dependent family of a uniform device, with its built-in frequencies."""
    d = abs(p.uniform()[1])
    for kind in _ORG_KINDS:
        yield org_hamiltonian(kind, p), (d, 2 * d)
    for kind in _DELTA_KINDS:
        yield delta_hamiltonian(kind, p), (d, 2 * d)


def _check_weights(gen, times):
    ts = np.array(times)
    got = gen.weights(ts)
    assert got.shape == (len(gen.pieces), ts.size)
    for i, t in enumerate(times):
        assert np.array_equal(got[:, i], gen.weights(t))
        want = [sinusoid_product(w, t) for _, w in gen.pieces]
        assert np.allclose(got[:, i], want, rtol=0.0, atol=1e-15)
        snapshot = PauliSum.zero(gen.n)
        for (ps, _), c in zip(gen.pieces, want):
            snapshot = snapshot + c * ps
        assert gen.at(t).allclose(snapshot, tol=1e-14)
    assert gen.weights(ts.reshape(1, -1)).shape == (len(gen.pieces), 1, ts.size)


@given(uniform_devices(), _TIMES)
def test_original_and_defect_weights_and_frequencies(p, times):
    for gen, freqs in _generators(p):
        _check_weights(gen, times)
        assert gen.frequencies == freqs
        assert gen.max_frequency == freqs[-1]


@given(chains() | uniform_devices(), _TIMES)
def test_lab_and_rotating_weights_and_frequencies(p, times):
    lab = lab_frame_hamiltonian(p)
    rot = rotating_frame_hamiltonian(p)
    for gen in (lab, rot):
        _check_weights(gen, times)
    driven = {abs(float(p.omega[k])) for k in range(p.n) if p.Omega[k] != 0.0}
    bonds = {abs(float(p.omega[k] - p.omega[k + 1])) for k in range(p.n - 1) if p.g[k] != 0.0}
    assert lab.frequencies == tuple(sorted(driven))
    assert rot.frequencies == tuple(sorted(bonds))


@given(uniform_devices(), _floats(0.01, 2.0))
def test_dyson_integral_matches_snapshot_quadrature(p, t):
    report = dyson_propagator_diff(p, t)
    nodes = report.params["quadrature_nodes"]
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    gen = delta_hamiltonian(K.DELTA_H, p)
    integral = PauliSum.zero(p.n)
    for x, w in zip(xs, ws):
        s = 0.5 * t * (x + 1.0)
        snapshot = PauliSum.zero(p.n)
        for ps, weight in gen.pieces:
            snapshot = snapshot + sinusoid_product(weight, s) * ps
        integral = integral + float(0.5 * t * w) * snapshot
    want = integral.frobenius_norm(normalized=True)
    got = report.entry("propagator_diff_norm").value
    g = abs(p.uniform()[0])
    assert abs(got - want) <= 1e-13 * max(want, t * g)
