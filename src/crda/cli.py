"""Command-line interface: batch runs, sweeps, and report generation.

Subcommands mirror the library layers: ``hamiltonian`` (operator
construction), ``verify-frames`` (integrated dynamics vs the effective
chain), ``simulate`` (schedule evolution), ``errors`` (norms, bounds,
commutator audits), and ``compile`` (schedule export). All outputs are
deterministic: fixed seeds, fixed iteration orders, sorted keys, and
shortest round-trip float formatting, so identical configurations
reproduce byte-identical files.

Flags are data: ``_FLAGS`` declares every flag once, and ``_SUBCOMMANDS``
names each subcommand's flags. ``_mode`` states which flags each mode
reads, and ``main`` refuses, before any work, every flag set off its
default that the mode never reads, so the echoed configuration holds only
what ran. It refuses as well a non-finite value of any ``float`` flag or
sweep bound, geometric sweep bounds on both sides of zero, and a
``--tol`` <= 0, which no run could meet.

Exit codes: 0 success, 2 usage error, 3 infeasible size, 4 numerical
non-convergence (a Lanczos run or a LAPACK eigensolver), 1 anything else.
Failures emit a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import errors as err
from .compiler import (
    ModelKind,
    TargetModel,
    _check_simulation_memory,
    compile_model,
    simulate,
)
from .device import DeviceParams, DriveConfig, Lattice, load_config
from .frames import verify_effective
from .hamiltonians import (
    _BONDS,
    _PHASE_CHAINS,
    HamiltonianKind,
    build_canonical,
    build_delta,
    build_lab_frame,
    build_org,
    build_qf_effective,
)
from .pauli import ConvergenceError, DenseLimitError, PauliSum, _check_dense, _masks

_PHASE_KINDS = {k.value for k in _PHASE_CHAINS}
_CANONICAL_KINDS = _PHASE_KINDS | {k.value for k in _BONDS}
_2D_KINDS = {k.value for k, (dim, *_) in _BONDS.items() if dim == 2}
_DEVICE_KINDS = ({k.value for k in HamiltonianKind} - _CANONICAL_KINDS) | {"qf_device"}
# verify-frames' ladder device when no --params file is given
_LADDER = {"n": 2, "g": 0.1, "delta": 5.0, "omega": 0.25, "omega_base": 40.0}


# Every flag of every subcommand, declared once: argparse keywords by flag name.
_FLAGS: dict[str, dict] = {
    "kind": {"required": True, "choices": sorted(_CANONICAL_KINDS | _DEVICE_KINDS)},
    "which": {
        "required": True,
        "choices": ("synthesis", "dyson", "table1", "trotter", "unitcell", "bounds"),
    },
    "model": {"help": "model selector for synthesis/trotter/bounds"},
    "n": {"type": int},
    "nx": {"type": int},
    "ny": {"type": int},
    "boundary": {"choices": ("open", "periodic")},
    "j": {"type": float, "default": 1.0},
    "phi": {"type": float, "default": 0.0},
    "t": {"type": float, "default": 0.0},
    "g": {"type": float, "help": "bond coupling"},
    "delta": {"type": float, "help": "drive detuning"},
    "omega": {"type": float, "help": "drive amplitude"},
    "omega-base": {"type": float, "help": "lowest qubit frequency"},
    "drive": {"choices": ("all", "odd", "even"), "default": "all"},
    "mode": {"choices": ("lab", "rotating"), "default": "lab"},
    "tol": {"type": float, "default": 1e-8},
    "tau": {"type": float},
    "blocks": {"type": int},
    "observable": {"action": "append", "help": "z<k>, sz-total, or pauli:<pattern>; repeatable"},
    "initial": {"help": "initial bit string, site 1 leftmost"},
    "realistic": {"action": "store_true"},
    "fuse": {"action": "store_true"},
    "size": {"type": int, "help": "bound-table size parameter"},
    "sweep": {"help": "sweep spec name=start:stop:points[:geom]"},
    "params": {"help": "device/model configuration file (flat or JSON)"},
    "out": {"help": "output path (default: stdout)"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "threads": {"type": int, "default": 1, "help": "parallel sweep workers"},
    "seed": {"type": int, "default": 7, "help": "seed for iterative solvers"},
}
_MODEL = {"required": True, "choices": [m.value for m in ModelKind], "help": None}
# subcommand -> (help, its flags in parser order, per-subcommand overrides of _FLAGS);
# simulate's and compile's --j default None means "take J from --params"
_SUBCOMMANDS: dict[str, tuple[str, str, dict]] = {
    "hamiltonian": (
        "emit a named Hamiltonian as JSON/CSV",
        "kind n nx ny boundary j phi t g delta omega drive",
        {},
    ),
    "verify-frames": (
        "integrated dynamics vs effective chain",
        "n g delta omega omega-base t mode tol sweep",
        {"t": {"required": True, "help": "final time"}},
    ),
    "simulate": (
        "evolve a state through a compiled schedule",
        "model n nx ny boundary j tau blocks observable initial realistic g delta omega fuse",
        {"model": _MODEL, "j": {"default": None}},
    ),
    "errors": (
        "error norms, bounds, and structural audits",
        "which model n nx ny boundary g delta omega t j size sweep",
        {},
    ),
    "compile": (
        "export a digital-analog schedule",
        "model n nx ny boundary j tau blocks fuse",
        {"model": _MODEL, "j": {"default": None}},
    ),
}


def _flags(command: str) -> list[str]:
    """The flags of ``command`` in parser order."""
    return (_SUBCOMMANDS[command][1] + " params out format threads seed").split()


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``crda`` parser, and its subparsers by name, built once per process.

    Parsing leaves them as they are, and argparse finds ``sys.stderr`` and
    the terminal width when it prints, so every call may share them.
    """
    parser = argparse.ArgumentParser(
        prog="crda",
        description="cross-resonance digital-analog simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, overrides) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in _flags(name):
            p.add_argument(f"--{flag}", **{**_FLAGS[flag], **overrides.get(flag, {})})
    return parser, sub.choices


def _mode(args) -> tuple[str, set[str]]:
    """The mode an invocation runs, and the flags that mode reads.

    A mode is a ``hamiltonian`` kind, an ``errors --which`` mode (for
    ``trotter``, a chain or a 2D model), ``simulate`` with or without
    ``--realistic``, ``verify-frames`` with or without ``--params``, or
    ``compile``. A lattice reads ``--n`` only without ``--nx``; a chain kind
    reads only ``--n``, and a 2D kind only ``--nx/--ny``.
    """
    lattice = {"nx", "ny", "boundary"} | ({"n"} if getattr(args, "nx", None) is None else set())
    device = {"n", "g", "delta", "omega", "params"}
    if args.command == "hamiltonian":
        if args.kind in _CANONICAL_KINDS:
            extent = {"nx", "ny"} if args.kind in _2D_KINDS else {"n"}
            reads = extent | {"boundary", "j", "params"}
            reads |= {"phi"} if args.kind in _PHASE_KINDS else set()
        else:
            reads = device | ({"drive"} if args.kind == "qf_device" else {"t"})
        return f"hamiltonian --kind {args.kind}", reads | {"kind"}
    if args.command == "verify-frames":
        if args.params:
            return "verify-frames --params", {"t", "mode", "tol", "sweep", "params"}
        return "verify-frames", {"t", "mode", "tol", "sweep", *_LADDER}
    if args.command == "errors":
        reads = {
            "synthesis": device | {"model", "t", "sweep"},
            "dyson": device | {"t", "sweep"},
            "table1": lattice | {"j"},
            "trotter": (lattice if (args.model or "").startswith("xy2d") else {"n"})
            | {"model", "j", "seed"},
            "unitcell": {"j", "seed"},
            "bounds": {"model", "size", "j", "g"},
        }[args.which]
        return f"errors --which {args.which}", reads | {"which"}
    reads = lattice | {"model", "j", "tau", "blocks", "fuse", "params"}
    if args.command == "compile":
        return "compile", reads
    reads |= {"observable", "initial", "realistic"}
    if args.realistic:
        return "simulate --realistic", reads | {"g", "delta", "omega"}
    return "simulate without --realistic", reads


def _refuse_unread(args, parser: argparse.ArgumentParser) -> None:
    """Refuse every flag off its parser default that the mode never reads.

    ``--out``, ``--format`` and ``--threads`` are read in every mode.
    """
    mode, reads = _mode(args)
    reads |= {"out", "format", "threads"}
    unread = [
        f"--{flag}"
        for flag in _flags(args.command)
        if (dest := flag.replace("-", "_")) not in reads
        and getattr(args, dest) != parser.get_default(dest)
    ]
    if unread:
        hint = ""
        if {"--n", "--nx", "--ny", "--boundary"} & set(unread):
            uses = {"nx": "--nx/--ny", "n": "--n", "size": "--size"}
            hint = next((f"; use {use}" for flag, use in uses.items() if flag in reads), "")
        raise ValueError(f"{mode} takes no {'/'.join(unread)}{hint}")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _emit(args, payload: dict, csv_rows: list[list] | None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(payload.get("config", {}), sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows or []:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_echo(args, extra: dict | None = None) -> dict:
    """The set flags the mode reads (see :func:`_mode`), ``--format``, and ``extra``."""
    reads = _mode(args)[1] | {"format"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k in reads and v is not None}
    if extra:
        cfg.update(extra)
    return cfg


def _file_config(args) -> dict:
    return load_config(args.params) if args.params else {}


def _lattice_from_args(args, cfg=None) -> Lattice:
    cfg = cfg or {}
    n = args.n if args.n is not None else cfg.get("n")
    boundary = args.boundary or cfg.get("boundary")
    if args.nx is not None:
        return Lattice.square(args.nx, args.ny, boundary=boundary or "periodic")
    if args.ny is not None:
        raise ValueError("--ny needs --nx")
    if n is None:
        raise ValueError("specify --n for chains or --nx/--ny for lattices")
    return Lattice.chain(int(n), boundary=boundary or "open")


def _uniform_device(args, n: int | None, omega_fb: float = 0.0) -> DeviceParams:
    """Uniform-chain device with flag > file > fallback precedence."""
    cfg = _file_config(args)
    structured = any(k == "omega_q" or str(k).startswith("omega_q.") for k in cfg)
    if structured:
        p = DeviceParams.from_config(cfg)
        omega = p.omega if args.delta is None else p.omega_q - args.delta
        Omega = p.Omega if args.omega is None else np.full(p.n, args.omega)
        g = p.g if args.g is None else np.full(p.g.size, args.g)
        return replace(p, omega=omega, Omega=Omega, g=g)
    g = args.g if args.g is not None else float(cfg.get("g", 1.0))
    delta = args.delta if args.delta is not None else float(cfg.get("delta", 10.0))
    omega = args.omega if args.omega is not None else float(cfg.get("Omega", omega_fb))
    nn = int(n if n is not None else cfg.get("n", 2))
    return DeviceParams.uniform_chain(nn, g=g, delta=delta, Omega=omega)


def _device_echo(p: DeviceParams) -> dict:
    arrays = ("omega_q", "omega", "Omega", "phi", "g")
    return {"n": p.n, **{k: [float(v) for v in getattr(p, k)] for k in arrays}}


def _parse_sweep(spec: str) -> tuple[str, np.ndarray]:
    name, _, rest = spec.partition("=")
    parts = rest.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("sweep spec must be name=start:stop:points[:geom]")
    start, stop, npts = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep start and stop must be finite (got {start}, {stop})")
    if npts < 1:
        raise ValueError("sweep needs at least one point")
    if len(parts) == 4 and parts[3] == "geom":
        if start < 0 < stop or stop < 0 < start:
            raise ValueError(f"geometric sweep bounds must have one sign (got {start}, {stop})")
        values = np.geomspace(start, stop, npts)
    else:
        values = np.linspace(start, stop, npts)
    return name, values


def _sweep(args, run, default: float, names: tuple[str, ...], usage: str) -> list:
    """``run`` at each point of ``--sweep`` over one of ``names``, else at ``default``."""
    if not args.sweep:
        return [run(default)]
    name, values = _parse_sweep(args.sweep)
    if name not in names:
        raise ValueError(usage)
    points = [float(v) for v in values]
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            return list(pool.map(run, points))
    return [run(v) for v in points]


def _parse_observables(specs: list[str] | None, n: int) -> tuple[list[PauliSum], list[str]]:
    specs = specs or ["sz-total"]
    obs, names = [], []
    for spec in specs:
        if spec == "sz-total":
            obs.append(PauliSum(n, {_masks([(k, "Z")]): 1.0 for k in range(n)}))
        elif spec.startswith("z") and spec[1:].isdigit():
            site = int(spec[1:])
            if not 1 <= site <= n:
                raise ValueError(f"observable site {site} outside 1..{n}")
            obs.append(PauliSum.from_sites(n, {site - 1: "Z"}))
        elif spec.startswith("pauli:"):
            obs.append(PauliSum.from_pattern(spec.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown observable {spec!r}")
        names.append(spec)
    return obs, names


def _initial_state(bits: str | None, n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    if bits is not None and (len(bits) != n or set(bits) - {"0", "1"}):
        raise ValueError("initial state must be a length-n bit string")
    psi[sum(int(b) << k for k, b in enumerate(bits or ""))] = 1.0
    return psi


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------


def _cmd_hamiltonian(args) -> None:
    kind = args.kind
    resolved: dict = {}
    if kind in _CANONICAL_KINDS:
        lat = _lattice_from_args(args, _file_config(args))
        h = build_canonical(HamiltonianKind(kind), lat, j=args.j, phi=args.phi)
        resolved["lattice"] = {"nx": lat.nx, "ny": lat.ny, "boundary": lat.boundary}
    else:
        if args.n is None and not args.params:
            raise ValueError("device-based kinds need --n or --params")
        p, drive = _uniform_device(args, args.n), DriveConfig(args.drive)
        if drive is not DriveConfig.ALL:  # the other sites: targets, undriven at zero detuning
            driven = np.isin(np.arange(p.n), drive.sites(p.n))
            p = replace(p, Omega=np.where(driven, p.Omega, 0.0), omega=np.where(driven, p.omega, p.omega_q))
        resolved["device"] = _device_echo(p)
        if kind == "lab":
            h = build_lab_frame(p, args.t)
        elif kind == "qf_device":
            h = build_qf_effective(p, drive)
        elif kind.startswith("org"):
            h = build_org(HamiltonianKind(kind), p, args.t)
        else:
            h = build_delta(HamiltonianKind(kind), p, args.t)
    payload = {
        "config": _config_echo(args, resolved),
        "hamiltonian": h.to_json_dict(),
    }
    rows = [["pattern", "re", "im"]]
    for row in payload["hamiltonian"]["terms"]:
        rows.append([row["p"], row["re"], row["im"]])
    _emit(args, payload, rows)


def _ladder_device(args) -> tuple[DeviceParams, dict]:
    """The device verify-frames runs (a ``--params`` file, else the ladder flags), and its echo."""
    if args.params:
        p = DeviceParams.from_config(load_config(args.params))
        return p, {"device": _device_echo(p)}
    flags = {k: d if getattr(args, k) is None else getattr(args, k) for k, d in _LADDER.items()}
    n, delta = flags["n"], flags["delta"]
    _check_dense(n, "verify-frames")
    omega_q = np.array([flags["omega_base"] + (n - k) * delta for k in range(1, n + 1)])
    p = DeviceParams(
        n=n,
        omega_q=omega_q,
        omega=omega_q - delta,  # each qubit sits at its right neighbour's resonance
        Omega=np.full(n, flags["omega"]),
        phi=np.zeros(n),
        g=np.full(n - 1, flags["g"]),
    )
    return p, flags


def _cmd_verify_frames(args) -> None:
    base, resolved = _ladder_device(args)

    def run(scale: float) -> dict:
        p = replace(base, Omega=scale * base.Omega, g=scale * base.g)
        rep = verify_effective(p, args.t, mode=args.mode, tol=args.tol)
        return {
            "scale": scale,
            "distance": rep.distance,
            "distance_lab_mapping": rep.distance_lab_mapping,
            "integrator": rep.integrator,
            "ratios": rep.ratios,
        }

    usage = "verify-frames sweeps over scale (alias omega-ratio)"
    results = _sweep(args, run, 1.0, ("scale", "omega-ratio"), usage)
    payload = {"config": _config_echo(args, resolved), "results": results}
    rows = [["scale", "distance", "distance_lab_mapping", "steps"]]
    for r in results:
        rows.append([r["scale"], r["distance"], r["distance_lab_mapping"], r["integrator"]["steps"]])
    _emit(args, payload, rows)


def _target_model(args) -> TargetModel:
    cfg = _file_config(args)
    lat = _lattice_from_args(args, cfg)
    j = args.j if args.j is not None else float(cfg.get("J", 1.0))
    tau = args.tau if args.tau is not None else float(cfg.get("tau", 0.1))
    blocks = args.blocks if args.blocks is not None else int(cfg.get("M", 1))
    return TargetModel(
        kind=ModelKind(args.model),
        lattice=lat,
        j=j,
        tau=tau,
        repetitions=blocks,
    )


def _resolved_model(model: TargetModel) -> dict:
    return {
        "resolved_model": {
            "j": model.j,
            "tau": model.tau,
            "blocks": model.repetitions,
            "nx": model.lattice.nx,
            "ny": model.lattice.ny,
            "boundary": model.lattice.boundary,
        }
    }


def _cmd_simulate(args) -> None:
    model = _target_model(args)
    device = None
    resolved = _resolved_model(model)
    if args.realistic:
        device = _uniform_device(args, model.lattice.n_sites, omega_fb=0.4)
        resolved["device"] = _device_echo(device)
    schedule = compile_model(
        model, fuse_layers=args.fuse, realistic=args.realistic, device=device
    )
    n = model.lattice.n_sites
    obs, names = _parse_observables(args.observable, n)
    _check_simulation_memory(schedule, obs)
    psi0 = _initial_state(args.initial, n)
    trace = simulate(schedule, psi0, obs)
    results = []
    for b in range(trace.times.size):
        row = {
            "block": b + 1,
            "time": float(trace.times[b]),
            "norm": float(trace.norms[b]),
        }
        for i, name in enumerate(names):
            row[name] = float(trace.expectations[b, i])
        results.append(row)
    payload = {"config": _config_echo(args, resolved), "results": results}
    header = ["block", "time", "norm", *names]
    rows = [header] + [[r[h] for h in header] for r in results]
    _emit(args, payload, rows)


def _cmd_errors(args) -> None:
    which = args.which
    resolved: dict = {}
    if which in ("synthesis", "dyson"):
        p = _uniform_device(args, args.n)
        resolved["device"] = _device_echo(p)
        if which == "synthesis":
            run = functools.partial(err.synthesis_norm, args.model or "control", p)
        else:
            run = functools.partial(err.dyson_propagator_diff, p)
        reports = _sweep(args, run, args.t, ("t",), "time sweeps use t=start:stop:points")
    elif which == "table1":
        reports = [err.table1_check(_lattice_from_args(args), j=args.j)]
    elif which == "trotter":
        if not args.model:
            raise ValueError("--model required for trotter commutators")
        if args.model.startswith("xy2d"):
            lat = _lattice_from_args(args)
        else:
            lat = Lattice.chain(args.n if args.n is not None else 4)
        reports = [
            err.trotter_commutator(args.model, lat, j=args.j, seed=args.seed)
        ]
    elif which == "unitcell":
        reports = [err.unit_cell_report(j=args.j, seed=args.seed)]
    else:  # bounds
        if not args.model or args.size is None:
            raise ValueError("--model and --size required for bound tables")
        g = args.g if args.g is not None else 1.0
        reports = [err.bound_table(args.model, args.size, j=args.j, g=g)]

    payload = {
        "config": _config_echo(args, resolved),
        "reports": [r.to_json_dict() for r in reports],
    }
    rows = [[*reports[0].to_csv_rows()[0], "t"]]
    for rep in reports:
        rows += [[*row, rep.params.get("t", "")] for row in rep.to_csv_rows()[1:]]
    _emit(args, payload, rows)


def _cmd_compile(args) -> None:
    model = _target_model(args)
    schedule = compile_model(model, fuse_layers=args.fuse)
    payload = {
        "config": _config_echo(args, _resolved_model(model)),
        "schedule": schedule.to_json_dict(),
    }
    rows = [["step", "type", "kind_or_drive", "support_or_duration"]]
    for i, step in enumerate(payload["schedule"]["steps"]):
        if step["type"] == "gate":  # a compiled support is "all", "even" or "odd"
            rows.append([i, "gate", step["kind"], step["support"]])
        else:
            rows.append([i, "analog", step["drive"], step["duration"]])
    _emit(args, payload, rows)


_COMMANDS = {
    "hamiltonian": _cmd_hamiltonian,
    "verify-frames": _cmd_verify_frames,
    "simulate": _cmd_simulate,
    "errors": _cmd_errors,
    "compile": _cmd_compile,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1 (got {args.threads})")
        for flag in _flags(args.command):
            value = getattr(args, flag.replace("-", "_"))
            if _FLAGS[flag].get("type") is float and value is not None and not math.isfinite(value):
                raise ValueError(f"--{flag} must be finite (got {value})")
        if getattr(args, "tol", 1.0) <= 0:
            raise ValueError(f"--tol must be positive (got {args.tol})")
        _refuse_unread(args, commands[args.command])
        _COMMANDS[args.command](args)
    except DenseLimitError as exc:
        _fail("resource", str(exc))
        return 3
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        _fail("convergence", str(exc))
        return 4
    except (ValueError, KeyError, OSError, ZeroDivisionError) as exc:
        _fail("usage", str(exc))
        return 2
    return 0


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
