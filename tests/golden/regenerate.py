"""Regenerate ``cli.json``, the golden CLI corpus: argv -> exit code and stdout.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each command runs in process through ``crda.cli.main``, from the
repository root, so ``--params`` paths resolve there wherever the script
is started, and with a RuntimeWarning raised as an error, as the tests run
it, so a recorded exit code does not depend on the filter the script was
started with. A change that moves a printed number regenerates the corpus
and names each moved number and its cause. The tests run every command in
two processes whose outputs must agree byte for byte (``corpus_runs`` in
``tests/conftest.py``).
"""

import contextlib
import io
import json
import os
import sys
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("cli.json")

# One command per mode of ``cli._mode``, every Hamiltonian kind, the device
# chain under each drive layout, and the org*/delta* kinds at t != 0; then
# CSV, a sweep, realistic simulate and a table-1 audit on more than 64 sites
# (two mask words); then the README examples, the benchmark's commands, a
# dense simulate and a fused 2D compile; then the lattice edge cases of the
# checkerboard bond walk; then synthesis and Dyson sweeps whose threads
# share the kept chains; then two runs of the nine-piece zz original chain:
# a synthesis sweep and realistic Ising blocks; then the benchmark's Krylov
# commutator norms; a Trotter audit of the empty commutator (J = 0); then
# fused compiles of the 1D protocols (xy1d merges h even + h odd into h all)
# and the structured branch of a --params device (a file holding omega_q),
# each with one flag override; a Trotter norm near the top of the float
# range (weights of 2e152), and one whose Lanczos recurrence would overflow
# (weights of 2e154), which is refused; a table-1 audit on 144 sites (three
# mask words); a synthesis run whose squared weights overflow float64, and a
# table-1 audit whose pair weights do; last, a 16-site DA Trotter norm (its
# Ritz step solves a 125x125 tridiagonal by LAPACK, which may thread), a
# sparse 4x4 simulate, the frame integrator, a 10-site simulate from a
# product state, a 10-site digital norm, three sweeps (two on two threads)
# and two short simulations; last, refusals of flag values out of their
# domain: non-finite values and sweep bounds, and tolerances <= 0; then
# work too large for memory: a simulation whose per-block trace arrays
# would not fit; then Dyson integrals at t = 1e300 and 1e5, millions of
# detuning periods and more; last, a
# Chebyshev expansion whose order would not fit (tau = 1e300), and a frame
# integration whose couplings (g = 1e300) overflow the Magnus exponent;
# last, a geometric sweep whose bounds lie on both sides of zero; then
# frame integrations whose Magnus ladder passes its work budget (a huge
# span, coupling or qubit frequency) or whose tolerance is below its float64
# floor, and sizes whose device arrays or masks would not fit in memory;
# last, a simulate whose observables have X parts, one of them (XY) an
# imaginary matrix weight; then 10^9-site devices, whose arrays would not
# fit in memory; then usage refusals: a lattice height without a width, an
# empty sweep, a coupling swept where time sweeps, an observable site out of
# range, an unknown observable, an initial state of the wrong length, and a
# bound table without a size; last, frame integrations on 2 qubits whose
# Magnus ladders pass the work budget once a step is priced at least at its
# floor (a long span, a fast drive, a far-detuned sweep).
_CHAIN_KINDS = (
    "h1 h2 h_e h_e_prime h_e_double_prime h_even h_even_prime h_odd h_odd_prime h_heis h_xy h_zz"
).split()
_PHASE_KINDS = "control qf qf_odd qf_even".split()
_TILING_KINDS = "h_i h_ii h_2d_even h_2d_odd h_xy_2d".split()
_DEVICE = "--n 3 --g 1 --delta 10 --omega 0.5"
COMMANDS = [
    *(f"hamiltonian --kind {k} --n 4 --j 0.7 --boundary periodic" for k in _CHAIN_KINDS),
    *(f"hamiltonian --kind {k} --n 3 --phi 0.3" for k in _PHASE_KINDS),
    *(f"hamiltonian --kind {k} --nx 4 --ny 2" for k in _TILING_KINDS),
    f"hamiltonian --kind lab {_DEVICE} --t 0.2",
    *(f"hamiltonian --kind {k} {_DEVICE} --t 0.1" for k in "org org_xy org_zz".split()),
    *(f"hamiltonian --kind {k} {_DEVICE} --t 0.3" for k in "delta delta_xy delta_zz".split()),
    "hamiltonian --kind qf_device --n 4 --drive odd --omega 0.5",
    "hamiltonian --kind qf_device --n 5 --drive all --omega 0.5",
    "hamiltonian --kind qf_device --n 5 --drive even --omega 0.5",
    "hamiltonian --kind h_even --n 4 --j 1 --format csv",
    "verify-frames --n 2 --delta 5 --g 0.1 --omega 0.25 --t 3",
    "verify-frames --params tests/golden/ladder.cfg --t 0.5 --mode rotating",
    "simulate --model ising --n 4 --j 1 --tau 0.3 --blocks 5 --observable sz-total --format csv",
    "simulate --model heisenberg --n 6 --blocks 3 --observable z1 --observable pauli:XXIIII",
    "simulate --model xy2d --nx 2 --ny 2 --blocks 2 --fuse",
    "simulate --model xy1d --n 3 --realistic --blocks 2",
    "errors --which synthesis --model control --n 2 --g 1 --omega 0",
    "errors --which synthesis --model xy --n 3 --g 1 --omega 0.5 --t 0.2",
    "errors --which synthesis --model control --n 2 --g 1 --omega 0.3 --sweep t=0:1:3",
    "errors --which dyson --n 2 --g 1 --delta 10 --omega 0.5 --t 0.4",
    "errors --which table1 --nx 4 --ny 4",
    "errors --which table1 --nx 10 --ny 8",
    "errors --which trotter --model heis_da --n 6",
    "errors --which trotter --model heis_digital --n 5 --j 0.5",
    "errors --which trotter --model xy2d_da --nx 2 --ny 4 --format csv",
    "errors --which trotter --model xy2d_digital --nx 3 --ny 2",
    "errors --which unitcell",
    "errors --which bounds --model heis_da --size 10",
    "compile --model heisenberg --n 4 --tau 0.2 --fuse",
    "compile --model xy2d --nx 2 --ny 2 --format csv",
    "compile --model ising --n 5 --blocks 2",
    "hamiltonian --kind h_i --nx 4 --ny 4 --boundary periodic",
    "hamiltonian --kind delta --n 3 --g 1 --delta 10 --omega 0.5 --t 0.1",
    "verify-frames --n 2 --delta 5 --g 0.1 --omega 0.25 --t 12.566 --sweep scale=1:0.25:3:geom",
    "errors --which trotter --model xy2d_da --nx 4 --ny 4 --format csv",
    "hamiltonian --kind h_i --nx 8 --ny 8",
    "compile --model heisenberg --n 12 --blocks 3 --fuse",
    "errors --which synthesis --model control --n 6 --omega 0.1 --sweep t=0:5:24 --threads 2",
    "simulate --model heisenberg --n 8 --blocks 3",
    "compile --model xy2d --nx 4 --ny 4 --fuse",
    "hamiltonian --kind h_xy_2d --nx 3 --ny 3",
    "errors --which trotter --model xy2d_digital --nx 1 --ny 3",
    "hamiltonian --kind h_i --nx 3 --ny 4",
    "errors --which synthesis --model zz --n 5 --omega 0.4 --t 0.3",
    "errors --which synthesis --model xy --n 8 --omega 3 --sweep t=0:0.6:12",
    "errors --which dyson --n 6 --delta 10 --omega 0.5 --sweep t=0:5:12",
    "errors --which synthesis --model zz --n 6 --omega 0.4 --sweep t=0:1.2:16",
    "simulate --model ising --n 4 --realistic --blocks 2",
    "errors --which trotter --model heis_da --n 14",
    "errors --which trotter --model heis_digital --n 14",
    "errors --which trotter --model xy2d_digital --nx 4 --ny 4",
    "errors --which trotter --model heis_da --n 4 --j 0",
    "compile --model ising --n 5 --tau 0.3 --fuse",
    "compile --model xy1d --n 6 --fuse",
    "hamiltonian --kind qf_device --params tests/golden/device.cfg --g 0.7",
    "errors --which synthesis --model control --params tests/golden/device.cfg --g 0.5 --t 0.2",
    "errors --which trotter --model heis_da --n 4 --j 1e76",
    "errors --which trotter --model heis_da --n 4 --j 1e77",
    "errors --which table1 --nx 12 --ny 12",
    "errors --which synthesis --model xy --n 4 --g 1e160",
    "errors --which table1 --nx 4 --ny 4 --j 1e160",
    "errors --which trotter --model heis_da --n 16",
    "simulate --model xy2d --nx 4 --ny 4 --blocks 2",
    "verify-frames --n 3 --t 2",
    "simulate --model heisenberg --n 10 --blocks 3 --initial 1010011001",
    "errors --which trotter --model heis_digital --n 10",
    "errors --which synthesis --model xy --n 4 --omega 1.0 --sweep t=0:0.6:8 --threads 2 --format csv",
    "simulate --model heisenberg --n 4 --tau 0.1 --blocks 3 --observable z2",
    "errors --which dyson --n 2 --omega 1 --sweep t=0:0.6:4",
    "errors --which synthesis --model control --n 5 --omega 1.0 --sweep t=0:0.6:6 --threads 2 --format csv",
    "simulate --model xy1d --n 4 --tau 0.2 --blocks 4 --observable sz-total --initial 1000",
    "errors --which dyson --g -1 --t inf",
    "errors --which synthesis --model xy --n 3 --t inf",
    "verify-frames --n 2 --t nan",
    "errors --which dyson --n 2 --sweep t=0:inf:3",
    "verify-frames --n 3 --t 1 --tol -1",
    "verify-frames --n 3 --t 1 --tol 0",
    "simulate --model heisenberg --n 4 --blocks 10000000000",
    "errors --which dyson --n 2 --t 1e300",
    "errors --which dyson --n 2 --t 1e5",
    "simulate --model heisenberg --n 4 --tau 1e300 --blocks 1",
    "verify-frames --n 2 --g 1e300 --t 1",
    "verify-frames --n 2 --t 0.5 --sweep scale=-1:5:3:geom",
    "verify-frames --n 2 --t 1e300",
    "verify-frames --n 2 --g 1e150 --t 1",
    "verify-frames --delta 0 --omega-base 1e150 --t 3",
    "verify-frames --n 3 --delta 3 --omega 0 --t 3 --tol 1e-300",
    "verify-frames --n 1000000000 --t 1",
    "compile --model xy2d --nx 1000000000",
    "simulate --model xy1d --n 4 --blocks 3 --observable pauli:XYII --observable pauli:YZZY --observable z2",
    "simulate --model ising --n 1000000000 --realistic",
    "hamiltonian --kind qf_device --n 1000000000",
    "hamiltonian --kind org_zz --n 1000000000",
    "hamiltonian --kind org_xy --n 1000000000",
    "hamiltonian --kind delta_xy --n 1000000000",
    "errors --which synthesis --model control --n 1000000000",
    "errors --which dyson --n 1000000000",
    "simulate --model ising --ny 2",
    "errors --which synthesis --sweep t=0:1:0",
    "errors --which synthesis --sweep g=0:1:3",
    "simulate --model ising --n 3 --observable z5",
    "simulate --model ising --n 3 --observable q",
    "simulate --model ising --n 3 --initial 01",
    "errors --which bounds --model xy2d_da",
    "verify-frames --n 2 --t 1e5",
    "verify-frames --n 2 --delta 5 --g 0.1 --omega 1e5 --t 3",
    "verify-frames --n 2 --delta 1e5 --g 0.1 --omega 0.25 --t 12.566 --sweep scale=1:0.25:3:geom",
]


@contextlib.contextmanager
def _at_root():
    """Work in ``ROOT`` for the block (``contextlib.chdir`` from Python 3.11 on)."""
    before = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(before)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``crda`` on ``argv``, run in process from ``ROOT``.

    A RuntimeWarning is an error, as under ``-W error::RuntimeWarning``. An
    exception that ``main`` lets through exits 1 and writes its traceback to
    stderr, as ``python -m crda.cli`` does on an uncaught exception.
    """
    from crda.cli import main

    out, err = io.StringIO(), io.StringIO()
    with _at_root(), warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    corpus = {}
    for command in COMMANDS:
        code, stdout, _ = run(command.split())
        corpus[command] = {"exit": code, "stdout": stdout}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"{len(corpus)} commands -> {CORPUS.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
