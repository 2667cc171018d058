"""Property tests of time-dependent Hamiltonians: weights as sinusoid data.

Weights are checked against a per-time ``math`` evaluation
(``conftest.sinusoid_product``), the derived frequencies against the
frequencies each family is built from, the piece-integrated Dyson
integral against a quadrature sum of per-node snapshots, and the folded
weighted sum against the left-to-right reference loop, bit for bit: on a
fresh chain per case, and on one kept chain whose fold plan serves many
scalar vectors, from one thread or four, without grouping keys again. The
original and defect chains kept per uniform chain are checked against a
fresh build, bit for bit, and for their refusals and read-only arrays.
"""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    reference_add,
    reference_scale,
    reference_weighted_sum,
    sinusoid_product,
    term_bits,
)
from crda import pauli
from crda.device import DeviceParams
from crda.errors import dyson_propagator_diff, synthesis_norm
from crda.hamiltonians import (
    HamiltonianKind as K,
    TimeDependentHamiltonian,
    _delta_chain,
    _org_chain,
    _uniform_quantities,
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


# ----------------------------------------------------------------------
# the folded weighted sum against the reference loop, bit for bit
# ----------------------------------------------------------------------

# Weight parts and scalars that carry signed zeros, cancel a running sum
# exactly or to below PRUNE_TOL (1.0 - 1.0 + 3e-15), scale a weight to below
# PRUNE_TOL, or overflow to inf.
_PARTS = _floats(-2.0, 2.0) | st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, 0.0, -0.0, 1e-15])
_SCALARS = _floats(-2.0, 2.0) | st.sampled_from(
    [1.0, -1.0, 1.0 + 4e-15, -1.0 + 3e-15, 0.5, -0.5, 0.0, -0.0, 5e-15, 1e300, 1.7e308]
)


@st.composite
def weighted_pieces(draw):
    """Up to seven pieces over a pool of at most three strings, and one scalar per piece.

    About half the pieces after the first cancel one weight of the running
    reference sum to within PRUNE_TOL, so that a later piece on the same
    string restarts it from 0.0.
    """
    n = draw(st.sampled_from([1, 2, 3, 65]))
    masks = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=3, unique=True))
    pieces, scalars, running = [], [], PauliSum.zero(n)
    for _ in range(draw(st.integers(0, 7))):
        if running.terms() and draw(st.booleans()):
            t = draw(st.sampled_from(running.terms()))
            s = draw(st.sampled_from([1.0, -1.0, 0.5, 2.0]))
            slip = draw(st.sampled_from([0.0, 3e-15, -4e-15j]))
            piece = PauliSum(n, {(t.x, t.z): (slip - t.coeff) / s})
        else:
            keys = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
            piece = PauliSum(n, {k: complex(draw(_PARTS), draw(_PARTS)) for k in keys})
            s = draw(_SCALARS)
        pieces.append(piece)
        scalars.append(s)
        try:
            running = reference_add(running, reference_scale(piece, s))
        except ValueError:  # the case raises; later pieces are drawn all the same
            pass
    return TimeDependentHamiltonian(n, tuple((h, ()) for h in pieces)), scalars


def _assert_weighted_sum_matches_reference(gen, scalars):
    try:
        want = reference_weighted_sum(gen.n, [h for h, _ in gen.pieces], scalars)
    except ValueError:  # a non-finite scaled or running weight
        with pytest.raises(ValueError, match="finite"):
            gen.weighted_sum(scalars)
        return
    assert term_bits(gen.weighted_sum(scalars)) == term_bits(want)


@given(weighted_pieces())
def test_weighted_sum_equals_reference_loop(case):
    _assert_weighted_sum_matches_reference(*case)


_XX = (1, 0)


@pytest.mark.parametrize(
    "parts, scalars",
    [
        # the running sum cancels to 3e-15, is pruned and restarts from 0.0,
        # so the last imaginary -0.0 comes out as 0.0
        ([1.0, 1.0, complex(-2.0, -0.0)], [1.0, -1.0 + 3e-15, 1.0]),
        # cancels exactly, then restarts
        ([0.5, -0.5, complex(-1.0, -0.0), 1.0], [2.0, 2.0, 1.0, 1.0]),
        # the second scaled weight is pruned before it can add 5e-15
        ([1.0, 1.0], [1.0, 5e-15]),
        # a key only in the running sum keeps its weight, -0.0 parts included
        ([complex(-1.0, -0.0), 0.0, complex(-0.0, 3.0)], [1.0, 5.0, -1.0]),
        # a scaled weight overflows
        ([1.0, 2.0], [1.0, 1e308]),
        # each scaled weight is finite, their running sum is not
        ([1.0, 1.0], [1.7e308, 1.7e308]),
    ],
)
def test_weighted_sum_restart_signed_zero_and_overflow(parts, scalars):
    pieces = tuple((PauliSum(2, {_XX: complex(c)}), ()) for c in parts)
    _assert_weighted_sum_matches_reference(TimeDependentHamiltonian(2, pieces), scalars)


def test_weighted_sum_restarts_from_positive_zero():
    pieces = tuple((PauliSum(1, {_XX: complex(c)}), ()) for c in (1.0, 1.0, complex(-2.0, -0.0)))
    scalars = [1.0, -1.0 + 3e-15, 1.0]
    assert TimeDependentHamiltonian(1, pieces[:2]).weighted_sum(scalars[:2]).is_zero()
    got = TimeDependentHamiltonian(1, pieces).weighted_sum(scalars)
    assert term_bits(got) == term_bits(PauliSum(1, {_XX: complex(-2.0, 0.0)}))


def test_weighted_sum_needs_one_scalar_per_piece():
    gen = delta_hamiltonian(K.DELTA_H, DeviceParams.uniform_chain(3, g=1.0, delta=10.0, Omega=0.5))
    w = gen.weights(0.3)
    for scalars in (w[:-1], np.append(w, 1.0), []):
        with pytest.raises(ValueError, match=f"{len(scalars)} scalars for {len(gen.pieces)} pieces"):
            gen.weighted_sum(scalars)
    assert TimeDependentHamiltonian(2, ()).weighted_sum([]) == PauliSum.zero(2)


# ----------------------------------------------------------------------
# the fold plan of a kept chain, built once and reused
# ----------------------------------------------------------------------

# Scalars that a kept plan must not carry from one call to the next: an
# exact zero of either sign, one that scales every weight below PRUNE_TOL,
# and one that overflows a scaled or a running weight.
_SPECIAL = (0.0, -0.0, 5e-15, 1.7e308)


def _scalar_vectors(gen: TimeDependentHamiltonian) -> list[np.ndarray]:
    """``weights(t)`` on a grid, then copies with special scalars laid over them."""
    grid = [gen.weights(t) for t in np.linspace(0.0, 2.5, 11)]
    vectors = list(grid)
    for k, w in enumerate(grid):
        for j, s in enumerate(_SPECIAL):
            v = w.copy()
            v[(k + j) % len(v) :: len(_SPECIAL)] = s
            vectors.append(v)
    vectors += [np.full(len(gen.pieces), s) for s in _SPECIAL]
    return vectors + grid  # the grid again, after every special vector


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", _ORG_KINDS + _DELTA_KINDS)
def test_one_kept_chain_folds_every_vector_as_the_reference_loop(kind, n):
    # g = 3 puts weights above 1, so 1.7e308 overflows some scaled weights
    gen = _kept(kind, DeviceParams.uniform_chain(n, g=3.0, delta=-7.0, Omega=0.8))
    for scalars in _scalar_vectors(gen):
        _assert_weighted_sum_matches_reference(gen, scalars)


def test_a_fresh_chain_folds_from_four_threads_as_in_series():
    p = DeviceParams.uniform_chain(6, g=1.0, delta=10.0, Omega=0.5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the plan build too
    try:
        for kind in _ORG_KINDS + _DELTA_KINDS:
            vectors = [v for v in _scalar_vectors(_fresh(kind, p)) if np.abs(v).max() < 1e300]
            serial = _fresh(kind, p)
            want = [term_bits(serial.weighted_sum(v)) for v in vectors]
            shared = _fresh(kind, p)  # no plan yet: the threads race to build it
            start = threading.Barrier(4, timeout=30)

            def fold(_):
                start.wait()
                return [term_bits(shared.weighted_sum(v)) for v in vectors]

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(fold, k) for k in range(4)]
                assert [f.result(timeout=60) for f in futures] == [want] * 4
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", _ORG_KINDS + _DELTA_KINDS)
def test_a_kept_chain_groups_its_keys_once(kind, monkeypatch):
    p = DeviceParams.uniform_chain(5, g=1.0, delta=10.0, Omega=0.5)
    gen = _fresh(kind, p)
    gen.at(0.1)

    def regroup(*args):
        raise AssertionError("keys grouped again")

    monkeypatch.setattr(pauli, "_grouped", regroup)
    pieces = [h for h, _ in gen.pieces]
    for t in np.linspace(0.0, 3.0, 50):
        want = reference_weighted_sum(p.n, pieces, gen.weights(t))
        assert term_bits(gen.at(t)) == term_bits(want)
    # the plan is no field: a chain that holds one equals, hashes and prints as one that does not
    monkeypatch.undo()
    fresh = _fresh(kind, p)
    assert gen == fresh and hash(gen) == hash(fresh) and repr(gen) == repr(fresh)
    assert {gen: 1}[fresh] == 1


# ----------------------------------------------------------------------
# original and defect chains, kept per (kind, n, g, delta, Omega)
# ----------------------------------------------------------------------


def _kept(kind: K, p: DeviceParams) -> TimeDependentHamiltonian:
    return (org_hamiltonian if kind in _ORG_KINDS else delta_hamiltonian)(kind, p)


def _fresh(kind: K, p: DeviceParams) -> TimeDependentHamiltonian:
    """A build that reads nothing kept: both caches are emptied first."""
    _org_chain.cache_clear()
    _delta_chain.cache_clear()
    chain = _org_chain if kind in _ORG_KINDS else _delta_chain
    return chain.__wrapped__(kind, *_uniform_quantities(p))


def _bits(gen: TimeDependentHamiltonian) -> list:
    return [(weight, term_bits(ps)) for ps, weight in gen.pieces]


@given(uniform_devices())
def test_kept_chains_equal_a_fresh_build(p):
    for kind in _ORG_KINDS + _DELTA_KINDS:
        kept = _kept(kind, p)
        assert _kept(kind, p) is kept
        fresh = _fresh(kind, p)
        assert fresh is not kept
        assert fresh.n == kept.n == p.n
        assert _bits(fresh) == _bits(kept)


@pytest.mark.parametrize("change", [{"Omega": 0.7}, {"g": 0.3}, {"Omega": -0.5}, {"g": -1.0}])
@pytest.mark.parametrize("kind", _ORG_KINDS + _DELTA_KINDS)
def test_chains_that_differ_in_omega_or_g_are_kept_apart(kind, change):
    base = {"n": 4, "g": 1.0, "delta": 10.0, "Omega": 0.5}
    p, q = DeviceParams.uniform_chain(**base), DeviceParams.uniform_chain(**{**base, **change})
    a, b = _kept(kind, p), _kept(kind, q)
    assert a is not b
    assert _bits(a) != _bits(b)
    assert _bits(a) == _bits(_fresh(kind, p))
    assert _bits(_kept(kind, q)) == _bits(_fresh(kind, q))


def _near_uniform(**changes) -> DeviceParams:
    """A 4-site uniform chain (g = 1, delta = 10, Omega = 0.5) with per-site changes."""
    p = DeviceParams.uniform_chain(4, g=1.0, delta=10.0, Omega=0.5)
    fields = {"omega_q": p.omega_q, "omega": p.omega, "Omega": p.Omega, "phi": p.phi, "g": p.g}
    for name, (k, value) in changes.items():
        fields[name] = fields[name].copy()
        fields[name][k] = value
    return DeviceParams(n=4, **fields)


@pytest.mark.parametrize(
    "bad, error, match",
    [
        # the same (g[0], delta, Omega) as the kept chain, non-uniform further on
        (_near_uniform(g=(2, 0.5)), ValueError, "not uniform"),
        (_near_uniform(Omega=(1, 0.9)), ValueError, "not uniform"),
        (_near_uniform(omega_q=(2, 5.0)), ValueError, "not uniform"),
        # the same g and Omega, zero detuning on every site
        (DeviceParams.uniform_chain(4, g=1.0, delta=0.0, Omega=0.5), ZeroDivisionError, "zero"),
        # a single site, with no bond
        (DeviceParams.uniform_chain(1, g=1.0, delta=10.0, Omega=0.5), ValueError, "one bond"),
    ],
)
def test_refusals_run_after_a_kept_success(bad, error, match):
    good = DeviceParams.uniform_chain(4, g=1.0, delta=10.0, Omega=0.5)
    calls = [
        *(lambda p, k=k: _kept(k, p) for k in _ORG_KINDS + _DELTA_KINDS),
        lambda p: synthesis_norm("zz", p, 0.3),
        lambda p: dyson_propagator_diff(p, 0.3),
    ]
    for call in calls:
        call(good)
        with pytest.raises(error, match=match):
            call(bad)


@pytest.mark.parametrize("omega", [0.5, 0.0])
def test_kept_pieces_are_read_only(omega):
    p = DeviceParams.uniform_chain(3, g=1.0, delta=10.0, Omega=omega)
    for kind in _ORG_KINDS + _DELTA_KINDS:
        for ps, _ in _kept(kind, p).pieces:
            for words in (ps._x, ps._z, ps._c):
                with pytest.raises(ValueError, match="read-only"):
                    words[...] = 0
