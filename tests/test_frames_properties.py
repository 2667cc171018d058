"""Property tests of gate-layer toggling and fusion against dense oracles."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import dense_oracle, layer_oracle
from crda.compiler import AnalogSegment, Schedule, block_unitary, fuse
from crda.frames import GateLayer, GateLayerKind as G, toggle
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
