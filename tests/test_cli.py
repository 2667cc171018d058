"""Command-line interface: outputs, schemas, determinism, exit codes."""

import json
import re
import shlex
import signal
from pathlib import Path

import numpy as np
import pytest

from crda.cli import _FLAGS, _SUBCOMMANDS, _build_parser, _flags, _mode, _parse_observables, main
from crda.device import DeviceParams, Lattice
from crda.errors import table1_check
from crda.hamiltonians import HamiltonianKind, build_lab_frame, build_org
from crda.pauli import PauliSum


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHamiltonianCommand:
    def test_even_chain_terms(self, capsys):
        code, out, _ = run_cli(
            ["hamiltonian", "--kind", "h_even", "--n", "4", "--j", "1"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["hamiltonian"]["n"] == 4
        assert len(data["hamiltonian"]["terms"]) == 3
        assert data["config"]["kind"] == "h_even"

    def test_device_based_kind(self, capsys):
        code, out, _ = run_cli(
            [
                "hamiltonian", "--kind", "delta", "--n", "2",
                "--g", "1", "--delta", "10", "--omega", "0", "--t", "0",
            ],
            capsys,
        )
        assert code == 0
        terms = json.loads(out)["hamiltonian"]["terms"]
        got = {row["p"]: row["re"] for row in terms}
        assert np.isclose(got["ZZ"], 0.25) and np.isclose(got["YY"], 0.25)

    @pytest.mark.parametrize("kind", ["lab", "org", "org_xy", "org_zz"])
    def test_time_dependent_kind_matches_builder(self, capsys, kind):
        flags = ["--n", "3", "--g", "0.3", "--delta", "-7", "--omega", "0.9", "--t", "0.4"]
        code, out, _ = run_cli(["hamiltonian", "--kind", kind, *flags], capsys)
        assert code == 0
        p = DeviceParams.uniform_chain(3, g=0.3, delta=-7.0, Omega=0.9)
        h = build_lab_frame(p, 0.4) if kind == "lab" else build_org(HamiltonianKind(kind), p, 0.4)
        assert json.loads(out)["hamiltonian"] == h.to_json_dict()

    def test_sublattice_drive_leaves_targets_undriven(self, capsys):
        code, out, _ = run_cli(
            ["hamiltonian", "--kind", "qf_device", "--n", "4", "--drive", "odd", "--omega", "0.5"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["device"]["Omega"] == [0.5, 0.0, 0.5, 0.0]
        assert data["config"]["device"]["omega"] == [0.0, 10.0, 0.0, 10.0]
        terms = {row["p"]: row["re"] for row in data["hamiltonian"]["terms"]}
        assert terms == {"XXII": 0.0125, "IIXX": 0.0125}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["hamiltonian", "--kind", "h_zz", "--n", "3", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "pattern,re,im"
        assert len(lines) == 4

    def test_kind_sets(self, capsys):
        with pytest.raises(SystemExit):
            main(["hamiltonian", "--help"])
        offered = re.search(r"--kind \{([^}]*)\}", capsys.readouterr().out).group(1)
        assert set(offered.split(",")) == {k.value for k in HamiltonianKind} | {"qf_device"}
        device = {"lab", "qf_device", "org", "org_xy", "org_zz", "delta", "delta_xy", "delta_zz"}
        for kind in offered.split(","):
            code, _, errtext = run_cli(["hamiltonian", "--kind", kind], capsys)
            assert code == 2
            message = json.loads(errtext)["error"]["message"]
            assert ("device-based kinds need" in message) == (kind in device), kind
        for kind in ("h_2d_odd", "h_2d_even", "h_i", "h_ii", "h_xy_2d"):
            code, out, _ = run_cli(["hamiltonian", "--kind", kind, "--nx", "2"], capsys)
            assert code == 0
            lattice = json.loads(out)["config"]["lattice"]
            assert lattice == {"nx": 2, "ny": 2, "boundary": "periodic"}, kind


class TestErrorsCommand:
    def test_synthesis_reference(self, capsys):
        code, out, _ = run_cli(
            [
                "errors", "--which", "synthesis", "--model", "control",
                "--n", "2", "--g", "1", "--delta", "10", "--omega", "0",
            ],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)["reports"][0]
        value = next(e for e in rep["entries"] if e["name"] == "frobenius_norm")
        assert abs(value["value"] - 0.353553) < 1e-6

    def test_time_sweep_rows(self, capsys):
        code, out, _ = run_cli(
            [
                "errors", "--which", "dyson", "--n", "2", "--omega", "0",
                "--sweep", "t=0.01:0.6:5", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "name,value,analytic,bound,pass,t"
        assert len(lines) >= 6  # header plus >= one row per sweep point

    def test_bounds(self, capsys):
        code, out, _ = run_cli(
            ["errors", "--which", "bounds", "--model", "heis_da", "--size", "10"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["entries"][0]["value"] == 60.0

    def test_table1_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["errors", "--which", "table1", "--nx", "4", "--ny", "4", "--j", "0.37"], capsys
        )
        assert code == 0
        want = table1_check(Lattice.square(4, 4), j=0.37).to_json_dict()
        assert json.loads(out)["reports"] == [want]

    def test_two_site_heisenberg_digital_trotter(self, capsys):
        code, out, _ = run_cli(
            ["errors", "--which", "trotter", "--model", "heis_digital", "--n", "2"], capsys
        )
        assert code == 0
        entries = {e["name"]: e for e in json.loads(out)["reports"][0]["entries"]}
        assert entries["commutator_spectral_norm"]["value"] == 0.0
        assert entries["commutator_spectral_norm"]["passed"] is True


    def test_xy2d_digital_trotter_on_odd_periodic_lattice(self, capsys):
        code, out, _ = run_cli(
            ["errors", "--which", "trotter", "--model", "xy2d_digital", "--nx", "3"], capsys
        )
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["params"]["boundary"] == "periodic"
        norm = rep["entries"][0]["value"]
        assert norm == pytest.approx(68.08776358574299, rel=1e-12)


class TestSimulateCommand:
    def test_ising_rows_and_norm(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--model", "ising", "--n", "4", "--j", "1",
                "--tau", "0.3", "--blocks", "5", "--observable", "sz-total",
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "block,time,norm,sz-total"
        assert len(lines) == 6
        norms = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(abs(v - 1.0) <= 1e-10 for v in norms)

    def test_initial_state_and_site_observable(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--model", "xy1d", "--n", "3", "--tau", "0.2",
                "--blocks", "2", "--observable", "z1", "--observable", "sz-total",
                "--initial", "100",
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert all(abs(r["sz-total"] - 1.0) <= 1e-9 for r in rows)

    def test_sz_total_equals_one_at_a_time_sum(self):
        # one from_terms over distinct keys is bit for bit the sum built by +
        n = 6
        want = PauliSum.zero(n)
        for k in range(n):
            want = want + PauliSum.from_sites(n, {k: "Z"})
        (got,), _ = _parse_observables(["sz-total"], n)
        assert got == want
        assert got._c.tobytes() == want._c.tobytes()


class TestCompileCommand:
    def test_schedule_export(self, capsys):
        code, out, _ = run_cli(
            ["compile", "--model", "heisenberg", "--n", "4", "--tau", "0.2"], capsys
        )
        assert code == 0
        steps = json.loads(out)["schedule"]["steps"]
        assert sum(1 for s in steps if s["type"] == "analog") == 3

    def test_fused_export_shrinks(self, capsys):
        code, out, _ = run_cli(
            ["compile", "--model", "ising", "--n", "4", "--tau", "0.2"], capsys
        )
        full = len(json.loads(out)["schedule"]["steps"])
        code, out, _ = run_cli(
            ["compile", "--model", "ising", "--n", "4", "--tau", "0.2", "--fuse"],
            capsys,
        )
        fused = len(json.loads(out)["schedule"]["steps"])
        assert code == 0 and fused < full


class TestFilesAndDeterminism:
    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "h.json"
        code, out, _ = run_cli(
            ["hamiltonian", "--kind", "h_heis", "--n", "3", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["hamiltonian"]["n"] == 3


class TestParamsFile:
    def test_flags_override_file_values(self, tmp_path, capsys):
        cfg = tmp_path / "dev.cfg"
        cfg.write_text("n = 3\ng = 2.0\ndelta = 5.0\nOmega = 0.0\nJ = 0.5\ntau = 0.4\nM = 3\n")
        code, out, _ = run_cli(
            ["errors", "--which", "synthesis", "--model", "control", "--params", str(cfg)],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)["reports"][0]
        value = next(e for e in rep["entries"] if e["name"] == "frobenius_norm")
        assert np.isclose(value["value"], 1.0)  # g = 2, n = 3 from the file
        code, out, _ = run_cli(
            [
                "errors", "--which", "synthesis", "--model", "control",
                "--params", str(cfg), "--g", "1.0",
            ],
            capsys,
        )
        value = next(
            e for e in json.loads(out)["reports"][0]["entries"]
            if e["name"] == "frobenius_norm"
        )
        assert np.isclose(value["value"], 0.5)

    def test_model_params_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "dev.cfg"
        cfg.write_text("n = 4\nJ = 1.0\ntau = 0.4\nM = 3\n")
        code, out, _ = run_cli(
            ["simulate", "--model", "ising", "--params", str(cfg)], capsys
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert len(rows) == 3
        assert rows[-1]["time"] == pytest.approx(3 * 2 * 0.4)

    def test_file_n_beside_nx_allowed(self, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n = 5\ntau = 0.2\n")
        code, out, _ = run_cli(
            ["simulate", "--model", "xy2d", "--nx", "2", "--ny", "2", "--params", str(cfg)],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["resolved_model"]["nx"] == 2
        assert data["config"]["resolved_model"]["tau"] == 0.2
        assert "n" not in data["config"]

    @pytest.mark.parametrize("phi", ["phi.1 = inf", "phi.2 = nan", "phi.3 = nan"])
    @pytest.mark.parametrize(
        "command",
        [
            "hamiltonian --kind qf_device",
            "errors --which synthesis --model control",
            "verify-frames --t 0.5",
        ],
    )
    def test_non_finite_phase_in_file_refused(self, tmp_path, capsys, command, phi):
        cfg = tmp_path / "dev.cfg"
        cfg.write_text(f"n = 3\ng = 1\nomega_q = 10\nOmega.1 = 0.5\nomega.1 = 0\n{phi}\n")
        code, out, err = run_cli([*command.split(), "--params", str(cfg)], capsys)
        assert code == 2 and not out
        assert json.loads(err)["error"]["message"] == "phi must be finite"

    def test_verify_frames_echoes_file_device(self, tmp_path, capsys):
        cfg = tmp_path / "dev.cfg"
        cfg.write_text("n = 3\ng = 0.1\nomega_q = 40.0\nomega.1 = 35.0\nOmega.1 = 0.25\n")
        code, out, _ = run_cli(["verify-frames", "--params", str(cfg), "--t", "0.5"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert config["device"]["n"] == 3
        assert config["device"]["g"] == [0.1, 0.1]
        assert not {"n", "g", "delta", "omega", "omega_base"} & set(config)


# A modest value off the default of each flag that takes a string.
_STRING_VALUES = {"model": "heis_da", "sweep": "t=0:1:3", "initial": "0", "params": "x.cfg"}


def _off_default(flag: str, spec: dict) -> list[str]:
    """Argv setting ``flag`` to a modest value other than its default."""
    if spec.get("action") == "store_true":
        return [f"--{flag}"]
    if "choices" in spec:
        value = next(c for c in spec["choices"] if c != spec.get("default"))
    elif spec.get("action") == "append":
        value = "z1"
    elif spec.get("type") is int:
        value = "3"
    elif spec.get("type") is float:
        value = "0.5"
    else:
        value = _STRING_VALUES[flag]
    return [f"--{flag}", value]


def _unread_flag_cases() -> list:
    """(argv, flag) for every flag each mode never reads, set off its default.

    The modes are those of the accepted commands of the golden corpus. A
    flag that selects another mode which reads it (``--params`` on
    ``verify-frames``) is not an unread flag, and is left out.
    """
    corpus = json.loads((Path(__file__).with_name("golden") / "cli.json").read_text())
    parser, commands = _build_parser()
    cases, seen = [], set()
    for command, recorded in corpus.items():
        base = command.split()
        args = parser.parse_args(base)
        mode, reads = _mode(args)
        if recorded["exit"] or (mode, frozenset(reads)) in seen:
            continue
        seen.add((mode, frozenset(reads)))
        for flag in _flags(args.command):
            if flag.replace("-", "_") in reads | {"out", "format", "threads"}:
                continue
            spec = {**_FLAGS[flag], **_SUBCOMMANDS[args.command][2].get(flag, {})}
            argv = base + _off_default(flag, spec)
            if flag.replace("-", "_") in _mode(parser.parse_args(argv))[1]:
                continue
            cases.append(pytest.param(argv, flag, id=f"{command}: --{flag}"))
    return cases


def _base_argv(command: str) -> list[str]:
    """``command`` with each flag it requires at its first choice, or at 1."""
    argv = [command]
    for flag in _flags(command):
        spec = {**_FLAGS[flag], **_SUBCOMMANDS[command][2].get(flag, {})}
        if spec.get("required"):
            argv += [f"--{flag}", spec["choices"][0] if "choices" in spec else "1"]
    return argv


def _out_of_domain_cases() -> list:
    """(argv, message start) for every value out of its flag's domain.

    A non-finite value of each ``float`` flag of each subcommand, a
    ``--tol`` <= 0, and a non-finite sweep bound.
    """
    cases = []
    for command in _SUBCOMMANDS:
        for flag in _flags(command):
            if _FLAGS[flag].get("type") is float:
                for value in ("inf", "-inf", "nan"):
                    argv = _base_argv(command) + [f"--{flag}={value}"]
                    cases.append(pytest.param(argv, f"--{flag} must be finite", id=shlex.join(argv)))
    more = [
        ("verify-frames --t 1 --tol 0", "--tol must be positive"),
        ("verify-frames --t 1 --tol -1", "--tol must be positive"),
        ("verify-frames --t 1 --sweep scale=1:inf:2", "sweep start and stop must be finite"),
        ("errors --which dyson --n 2 --sweep t=nan:1:3", "sweep start and stop must be finite"),
    ]
    return cases + [pytest.param(argv.split(), start, id=argv) for argv, start in more]


@pytest.fixture
def alarm():
    """Fail a test still running after 5 s, so a run that hangs cannot stall the suite."""

    def expire(signum, frame):
        pytest.fail("still running after 5 s")  # not an error type that main catches

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestFailureModes:
    @pytest.mark.parametrize(("argv", "start"), _out_of_domain_cases())
    def test_value_out_of_domain_refused(self, capsys, alarm, argv, start):
        code, out, errtext = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        (line,) = errtext.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "usage"
        assert error["message"].startswith(start)

    def test_usage_error_exit_code(self, capsys):
        code, _, errtext = run_cli(["errors", "--which", "trotter"], capsys)
        assert code == 2
        assert json.loads(errtext)["error"]["type"] == "usage"

    def test_unknown_flag_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "ising", "--n", "4", "--nope"])
        assert exc.value.code == 2

    def test_one_parser_serves_runs_after_refusals(self, capsys):
        assert _build_parser() is _build_parser()
        argv = ["hamiltonian", "--kind", "h_xy", "--n", "4", "--j", "0.7"]
        first = run_cli(argv, capsys)
        assert first[0] == 0 and first[1]
        with pytest.raises(SystemExit) as exc:  # refused by the parser
            main(["hamiltonian", "--kind", "nope", "--n", "4"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err  # the stderr of this call
        assert run_cli(["errors", "--which", "trotter"], capsys)[0] == 2  # refused by main
        assert run_cli(argv, capsys) == first

    def test_oversize_trotter_norm_is_resource_error(self, capsys):
        code, out, errtext = run_cli(
            ["errors", "--which", "trotter", "--model", "heis_digital", "--n", "40"], capsys
        )
        assert code == 3
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "resource"
        assert "GiB" in error["message"]

    def test_oversize_simulation_is_resource_error(self, capsys):
        code, out, errtext = run_cli(["simulate", "--model", "ising", "--n", "40"], capsys)
        assert code == 3
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "resource"
        assert "GiB" in error["message"]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, threads):
        code, out, errtext = run_cli(
            ["errors", "--which", "dyson", "--n", "2", "--sweep", "t=0:1:3", "--threads", threads],
            capsys,
        )
        assert code == 2
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "usage"
        assert "--threads" in error["message"]

    @pytest.mark.parametrize(
        "args",
        [
            ["errors", "--which", "trotter", "--model", "heis_digital", "--n", "0"],
            ["hamiltonian", "--kind", "h_i", "--nx", "4", "--ny", "0"],
            ["hamiltonian", "--kind", "h_zz", "--n", "4", "--ny", "2"],
        ],
    )
    def test_zero_or_stray_extent_rejected(self, capsys, args):
        code, out, errtext = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(errtext)["error"]["type"] == "usage"

    @pytest.mark.parametrize(
        "args",
        [
            ["errors", "--which", "trotter", "--model", "heis_digital", "--nx", "6", "--ny", "2"],
            ["errors", "--which", "trotter", "--model", "heis_da", "--n", "4", "--boundary", "open"],
            ["hamiltonian", "--kind", "lab", "--n", "3", "--nx", "4", "--boundary", "periodic"],
            ["errors", "--which", "dyson", "--n", "2", "--ny", "2"],
            ["errors", "--which", "unitcell", "--n", "5", "--nx", "3"],
            ["errors", "--which", "bounds", "--model", "heis_da", "--size", "4", "--nx", "3",
             "--n", "9"],
        ],
        ids=["heis_digital-nx", "heis_da-boundary", "lab-nx", "dyson-ny", "unitcell-n-nx",
             "bounds-n-nx"],
    )
    def test_lattice_flags_rejected_on_chain_and_device_commands(self, capsys, args):
        code, out, errtext = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "usage"
        assert "--n" in error["message"]

    @pytest.mark.parametrize(
        "args",
        [
            ["hamiltonian", "--kind", "h_zz", "--n", "3", "--g", "5"],
            ["errors", "--which", "dyson", "--n", "3", "--model", "xy", "--t", "0.2"],
            ["errors", "--which", "table1", "--nx", "4", "--ny", "4", "--model", "foo",
             "--size", "3"],
            ["errors", "--which", "trotter", "--model", "heis_digital", "--n", "4",
             "--sweep", "t=0:1:3", "--size", "2"],
            ["simulate", "--model", "heisenberg", "--n", "4", "--g", "5"],
            # flags with a non-None default are refused too once set off it
            ["hamiltonian", "--kind", "lab", "--n", "3", "--j", "5", "--drive", "odd",
             "--phi", "1"],
            ["hamiltonian", "--kind", "h_zz", "--n", "3", "--t", "4", "--drive", "odd",
             "--phi", "2"],
            ["hamiltonian", "--kind", "h_zz", "--n", "3", "--phi", "1"],
            ["errors", "--which", "table1", "--nx", "4", "--ny", "4", "--t", "3", "--seed", "9"],
            ["errors", "--which", "synthesis", "--n", "3", "--j", "4", "--seed", "3"],
            ["compile", "--model", "ising", "--n", "4", "--seed", "5"],
            ["verify-frames", "--t", "1", "--seed", "4"],
            # a chain kind reads --n only, a tiling kind --nx/--ny only
            ["hamiltonian", "--kind", "h_zz", "--nx", "2", "--ny", "2"],
            ["hamiltonian", "--kind", "h_i", "--n", "4"],
        ],
        ids=["canonical-g", "dyson-model", "table1-model-size", "trotter-sweep-size", "simulate-g",
             "lab-j-drive-phi", "h_zz-t-drive-phi", "h_zz-phi", "table1-t-seed",
             "synthesis-j-seed", "compile-seed", "verify-frames-seed", "chain-kind-nx-ny",
             "tiling-kind-n"],
    )
    def test_unread_flags_rejected(self, capsys, args):
        code, out, errtext = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "usage"
        assert "takes no --" in error["message"]

    @pytest.mark.parametrize("args, flag", _unread_flag_cases())
    def test_every_unread_flag_rejected(self, capsys, args, flag):
        code, out, errtext = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "usage"
        refused = error["message"].split(" takes no ")[1].split(";")[0].split("/")
        assert f"--{flag}" in refused

    @pytest.mark.parametrize(
        "args",
        [
            ["errors", "--which", "trotter", "--model", "xy2d_digital", "--nx", "4", "--ny", "2",
             "--n", "9"],
            ["errors", "--which", "table1", "--nx", "4", "--ny", "4", "--n", "7"],
            ["simulate", "--model", "xy2d", "--nx", "2", "--ny", "2", "--n", "5"],
        ],
        ids=["trotter-xy2d", "table1", "simulate-xy2d"],
    )
    def test_n_beside_nx_rejected(self, capsys, args):
        code, out, errtext = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "usage"
        assert "use --nx/--ny" in error["message"]

    @pytest.mark.parametrize(
        "flags",
        [["--n", "7", "--g", "0.5"], ["--delta", "4"], ["--omega", "0.3"], ["--omega-base", "41"]],
        ids=["n-g", "delta", "omega", "omega-base"],
    )
    def test_ladder_flags_beside_params_rejected(self, tmp_path, capsys, flags):
        # the file gives the whole device; a ladder flag beside it would be echoed unread
        cfg = tmp_path / "dev.cfg"
        cfg.write_text("n = 3\ng = 0.1\nomega_q = 40.0\nomega.1 = 35.0\nOmega.1 = 0.25\n")
        code, out, errtext = run_cli(
            ["verify-frames", "--params", str(cfg), "--t", "0.5", *flags], capsys
        )
        assert code == 2
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "usage"
        assert f"takes no {flags[0]}" in error["message"]

    def test_flag_at_its_default_accepted(self, capsys):
        code, out, _ = run_cli(
            ["hamiltonian", "--kind", "h_zz", "--n", "3", "--seed", "7", "--phi", "0"], capsys
        )
        assert code == 0
        # accepted, and, as every flag the mode does not read, not echoed
        assert not {"seed", "phi"} & set(json.loads(out)["config"])

    @pytest.mark.parametrize(
        "args, unread",
        [
            (["errors", "--which", "unitcell", "--format", "csv"], {"t", "n", "g"}),
            (["hamiltonian", "--kind", "lab", "--n", "2"], {"j", "phi", "seed", "drive"}),
        ],
        ids=["unitcell", "lab"],
    )
    def test_config_echoes_only_what_the_mode_reads(self, capsys, args, unread):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        if "--format" in args:
            config = json.loads(out.splitlines()[0].removeprefix("# config: "))
        else:
            config = json.loads(out)["config"]
        assert not unread & set(config)
        assert config["format"] == ("csv" if "--format" in args else "json")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["hamiltonian", "--kind", "delta_zz", "--n", "3", "--g", "1", "--delta", "0",
              "--omega", "0.5"], "zero detuning"),
            (["hamiltonian", "--kind", "qf_device", "--n", "3", "--delta", "0", "--omega", "0.5"],
             "zero detuning"),
            (["errors", "--which", "dyson", "--n", "3", "--delta", "0"], "zero detuning"),
            (["errors", "--which", "synthesis", "--n", "3", "--delta", "0", "--omega", "0.5"],
             "zero detuning"),
            (["simulate", "--model", "ising", "--n", "4", "--realistic", "--delta", "0"],
             "zero detuning"),
            (["errors", "--which", "synthesis", "--model", "bogus"],
             "unknown synthesis model 'bogus'"),
            # a 1-site chain has no bond to read a uniform coupling from
            *(
                (["hamiltonian", "--kind", kind, "--n", "1"], "at least one bond")
                for kind in ("org", "org_xy", "org_zz", "delta", "delta_xy", "delta_zz")
            ),
            (["errors", "--which", "synthesis", "--n", "1"], "at least one bond"),
            (["errors", "--which", "dyson", "--n", "1"], "at least one bond"),
            (["simulate", "--model", "xy1d", "--n", "1", "--realistic"], "at least one bond"),
        ],
        ids=["delta_zz", "qf_device", "dyson", "synthesis", "simulate-realistic",
             "synthesis-model", "org-n1", "org_xy-n1", "org_zz-n1", "delta-n1", "delta_xy-n1",
             "delta_zz-n1", "synthesis-n1", "dyson-n1", "simulate-realistic-n1"],
    )
    def test_bad_device_or_model_is_usage_error(self, capsys, args, message):
        code, out, errtext = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        error = json.loads(errtext)["error"]
        assert error["type"] == "usage"
        assert message in error["message"]

    def test_bad_sweep_spec(self, capsys):
        code, _, errtext = run_cli(
            ["errors", "--which", "dyson", "--n", "2", "--sweep", "t=1:2"], capsys
        )
        assert code == 2
        assert "sweep" in json.loads(errtext)["error"]["message"]


def _readme_commands() -> list[list[str]]:
    """Every ``crda ...`` line of README's command-line block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("crda ")]


def test_readme_commands_run(capsys):
    # the documented examples must never show a refused flag
    commands = _readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        code, _, errtext = run_cli(argv, capsys)
        assert code == 0, (argv, errtext)
