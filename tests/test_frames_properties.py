"""Property tests of gate-layer toggling and fusion against dense oracles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense_oracle, layer_oracle, reference_fuse
from crda.compiler import AnalogSegment, Schedule, block_unitary, fuse
from crda.frames import (
    GateLayer,
    GateLayerKind as G,
    apply_layer,
    phase_insensitive_distance,
    toggle,
)
from crda.pauli import PauliSum
from test_pauli_properties import pauli_sums


@st.composite
def sums_and_supports(draw):
    h = draw(pauli_sums())
    sites = draw(st.lists(st.integers(1, h.n), unique=True, max_size=h.n))
    return h, tuple(sites)


@pytest.mark.parametrize("kind", list(G))
@given(sums_and_supports())
def test_toggle_matches_conjugation(kind, case):
    h, support = case
    u = layer_oracle(kind.value, support, h.n)
    want = u.conj().T @ dense_oracle(h) @ u
    got = dense_oracle(toggle(h, GateLayer(kind, support)))
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * (1 + len(h)))


@st.composite
def layers_on_states(draw):
    """A layer on n = 1..10 sites, the 1-based sites it acts on, and a state shape."""
    n = draw(st.integers(1, 10))
    support = draw(
        st.sampled_from(["all", "even", "odd"])
        | st.lists(st.integers(1, n), unique=True, min_size=1, max_size=n).map(tuple)
    )
    if isinstance(support, tuple):
        sites = set(support)
    else:
        parity = {"all": None, "even": 0, "odd": 1}[support]
        sites = {k for k in range(1, n + 1) if parity is None or k % 2 == parity}
    shape = draw(st.sampled_from([(1 << n,), (1 << n, 3)]))
    return n, support, sites, shape


@pytest.mark.parametrize("kind", list(G))
@given(layers_on_states(), st.integers(0, 2**32 - 1))
@example((10, "odd", {1, 3, 5, 7, 9}, (1 << 10, 3)), 0)
@example((9, (4, 5, 9), {4, 5, 9}, (1 << 9,)), 1)
def test_apply_layer_matches_oracle(kind, case, seed):
    # n up to 10 crosses the 4-site blocks apply_layer works in.
    n, support, sites, shape = case
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = apply_layer(GateLayer(kind, support), state, n)
    want = layer_oracle(kind.value, sites, n) @ state
    assert got.shape == shape
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


_N = 3
# Kinds whose products with neighbours are again catalogued, drawn more often.
_KINDS = st.sampled_from([G.SPHASE, G.RX90, G.RX90DAG, G.UE, G.UEDAG]) | st.sampled_from(list(G))
_SUPPORTS = st.sampled_from(["all", "even", "odd", (1,), (2,), (1, 3), (2, 3)])
_SEGMENT = AnalogSegment(0.3, "all", PauliSum.from_pattern("XZI") + PauliSum.from_pattern("IYZ"))


@st.composite
def chunks(draw):
    """A same-support pair of layers, one layer, or an analog segment."""
    choice = draw(st.integers(0, 2))
    if choice == 0:
        support = draw(_SUPPORTS)
        return [GateLayer(draw(_KINDS), support), GateLayer(draw(_KINDS), support)]
    if choice == 1:
        return [GateLayer(draw(_KINDS), draw(_SUPPORTS))]
    return [_SEGMENT]


@given(st.lists(chunks(), min_size=1, max_size=5))
@example([[GateLayer(G.RX90), GateLayer(G.SPHASE)], [GateLayer(G.UEDAG)]])
@example([[GateLayer(G.RX90DAG, "odd"), GateLayer(G.UE, "odd")], [_SEGMENT]])
def test_fuse_preserves_block_unitary(parts):
    s = Schedule(n=_N, steps=tuple(step for part in parts for step in part))
    fused = fuse(s)
    assert len(fused.steps) <= len(s.steps)
    assert np.allclose(block_unitary(fused), block_unitary(s), rtol=0.0, atol=1e-12)


@settings(max_examples=1000)
@given(st.lists(chunks(), min_size=1, max_size=9))
@example([[GateLayer(G.HADAMARD, "even")], [GateLayer(G.HADAMARD, "odd")]])
@example([[GateLayer(G.SPHASE, (1,))], [GateLayer(G.SPHASE, (2,))], [_SEGMENT]])
@example([[GateLayer(G.IDENTITY, (2, 3))], [GateLayer(G.RX90, (1,))], [GateLayer(G.RX90, (3,))]])
def test_fuse_matches_reference(parts):
    # Same-support pairs, lone layers of every kind (identity included) on
    # named or tuple supports, and analog segments; the examples merge
    # disjoint supports into "all", a site tuple and "odd".
    s = Schedule(n=_N, steps=tuple(step for part in parts for step in part))
    assert fuse(s).steps == reference_fuse(s).steps


def _haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _scanned_minimum(u, v, points=2048):
    """min over theta of ||u - e^{i theta} v||: a grid, then every grid dip refined."""

    def dist(theta):
        return np.linalg.norm(u - np.exp(1j * theta) * v, 2)

    thetas = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    grid = np.linalg.norm(u - np.exp(1j * thetas)[:, None, None] * v, 2, axis=(-2, -1))
    step = thetas[1]
    dips = np.flatnonzero((grid <= np.roll(grid, 1)) & (grid <= np.roll(grid, -1)))
    # offsets from the dip, so the search tolerance is absolute, not ~1e-8 * theta
    refined = [
        scipy.optimize.minimize_scalar(
            lambda d, t=thetas[i]: dist(t + d), bounds=(-step, step), method="bounded",
            options={"xatol": 1e-14},
        ).fun
        for i in dips
    ]
    return grid.min(), min(refined)


@given(
    st.sampled_from([2, 4, 8]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 1e-6, 1e-3, 0.1, 1.0]),
    st.floats(0.0, 2.0 * np.pi),
)
def test_phase_insensitive_distance_is_the_minimum_over_theta(dim, seed, near, phase):
    """Exact against a theta scan, for unrelated unitaries and for v near e^{i a} u."""
    rng = np.random.default_rng(seed)
    u = _haar_unitary(rng, dim)
    if near is None:
        v = _haar_unitary(rng, dim)
    else:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        v = np.exp(1j * phase) * u @ scipy.linalg.expm(1j * near * (g + g.conj().T))
    got = phase_insensitive_distance(u, v)
    grid_min, scan_min = _scanned_minimum(u, v)
    assert got <= grid_min + 1e-12
    assert abs(got - scan_min) <= 1e-9
