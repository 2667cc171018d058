"""Command-line interface: batch runs, sweeps, and report generation.

Subcommands mirror the library layers: ``hamiltonian`` (operator
construction), ``verify-frames`` (integrated dynamics vs the effective
chain), ``simulate`` (schedule evolution), ``errors`` (norms, bounds,
commutator audits), and ``compile`` (schedule export). All outputs are
deterministic: fixed seeds, fixed iteration orders, sorted keys, and
shortest round-trip float formatting, so identical configurations
reproduce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 infeasible size, 4 numerical
non-convergence, 1 anything else. Failures emit a JSON error object on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
    _CHAIN_BONDS,
    _PHASE_CHAINS,
    _TILINGS,
    HamiltonianKind,
    build_canonical,
    build_delta,
    build_lab_frame,
    build_org,
    build_qf_effective,
)
from .pauli import ConvergenceError, DenseLimitError, PauliSum

_CANONICAL_KINDS = {k.value for k in (*_PHASE_CHAINS, *_CHAIN_BONDS, *_TILINGS)}
_2D_KINDS = {k.value for k in _TILINGS}
_DEVICE_KINDS = ({k.value for k in HamiltonianKind} - _CANONICAL_KINDS) | {"qf_device"}
# verify-frames' ladder device when no --params file is given
_LADDER = {"n": 2, "g": 0.1, "delta": 5.0, "omega": 0.25, "omega_base": 40.0}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", help="device/model configuration file (flat or JSON)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=1, help="parallel sweep workers")
    p.add_argument("--seed", type=int, default=7, help="seed for iterative solvers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crda",
        description="cross-resonance digital-analog simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ham = sub.add_parser("hamiltonian", help="emit a named Hamiltonian as JSON/CSV")
    ham.add_argument("--kind", required=True, choices=sorted(_CANONICAL_KINDS | _DEVICE_KINDS))
    ham.add_argument("--n", type=int)
    ham.add_argument("--nx", type=int)
    ham.add_argument("--ny", type=int)
    ham.add_argument("--boundary", choices=("open", "periodic"))
    ham.add_argument("--j", type=float, default=1.0)
    ham.add_argument("--phi", type=float, default=0.0)
    ham.add_argument("--t", type=float, default=0.0)
    ham.add_argument("--g", type=float, help="bond coupling (overrides --params)")
    ham.add_argument("--delta", type=float, help="drive detuning (overrides --params)")
    ham.add_argument("--omega", type=float, help="drive amplitude (overrides --params)")
    ham.add_argument("--drive", choices=("all", "odd", "even"), default="all")
    _add_common(ham)

    ver = sub.add_parser("verify-frames", help="integrated dynamics vs effective chain")
    ver.add_argument("--n", type=int)
    ver.add_argument("--g", type=float)
    ver.add_argument("--delta", type=float)
    ver.add_argument("--omega", type=float, help="drive amplitude")
    ver.add_argument("--omega-base", type=float, help="lowest qubit frequency")
    ver.add_argument("--t", type=float, required=True, help="final time")
    ver.add_argument("--mode", choices=("lab", "rotating"), default="lab")
    ver.add_argument("--tol", type=float, default=1e-8)
    ver.add_argument("--sweep", help="sweep spec name=start:stop:points[:geom]")
    _add_common(ver)

    sim = sub.add_parser("simulate", help="evolve a state through a compiled schedule")
    sim.add_argument("--model", required=True, choices=[m.value for m in ModelKind])
    sim.add_argument("--n", type=int)
    sim.add_argument("--nx", type=int)
    sim.add_argument("--ny", type=int)
    sim.add_argument("--boundary", choices=("open", "periodic"))
    sim.add_argument("--j", type=float)
    sim.add_argument("--tau", type=float)
    sim.add_argument("--blocks", type=int)
    sim.add_argument(
        "--observable",
        action="append",
        default=None,
        help="z<k>, sz-total, or pauli:<pattern>; repeatable",
    )
    sim.add_argument("--initial", help="initial bit string, site 1 leftmost")
    sim.add_argument("--realistic", action="store_true")
    sim.add_argument("--g", type=float)
    sim.add_argument("--delta", type=float)
    sim.add_argument("--omega", type=float)
    sim.add_argument("--fuse", action="store_true")
    _add_common(sim)

    erp = sub.add_parser("errors", help="error norms, bounds, and structural audits")
    erp.add_argument(
        "--which",
        required=True,
        choices=("synthesis", "dyson", "table1", "trotter", "unitcell", "bounds"),
    )
    erp.add_argument("--model", help="model selector for synthesis/trotter/bounds")
    erp.add_argument("--n", type=int)
    erp.add_argument("--nx", type=int)
    erp.add_argument("--ny", type=int)
    erp.add_argument("--boundary", choices=("open", "periodic"))
    erp.add_argument("--g", type=float, help="bond coupling (overrides --params)")
    erp.add_argument("--delta", type=float, help="drive detuning (overrides --params)")
    erp.add_argument("--omega", type=float, help="drive amplitude (overrides --params)")
    erp.add_argument("--t", type=float, default=0.0)
    erp.add_argument("--j", type=float, default=1.0)
    erp.add_argument("--size", type=int, help="bound-table size parameter")
    erp.add_argument("--sweep", help="sweep spec t=start:stop:points")
    _add_common(erp)

    comp = sub.add_parser("compile", help="export a digital-analog schedule")
    comp.add_argument("--model", required=True, choices=[m.value for m in ModelKind])
    comp.add_argument("--n", type=int)
    comp.add_argument("--nx", type=int)
    comp.add_argument("--ny", type=int)
    comp.add_argument("--boundary", choices=("open", "periodic"))
    comp.add_argument("--j", type=float)
    comp.add_argument("--tau", type=float)
    comp.add_argument("--blocks", type=int)
    comp.add_argument("--fuse", action="store_true")
    _add_common(comp)

    return parser


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, payload: dict, csv_rows: list[list] | None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(payload.get("config", {}), sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows or []:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_echo(args, extra: dict | None = None) -> dict:
    skip = {"command", "func", "out", "threads"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    if extra:
        cfg.update(extra)
    return cfg


def _file_config(args) -> dict:
    return load_config(args.params) if args.params else {}


def _lattice_from_args(args, cfg=None, default_boundary_1d="open", default_boundary_2d="periodic") -> Lattice:
    cfg = cfg or {}
    n = args.n if args.n is not None else cfg.get("n")
    boundary = args.boundary or cfg.get("boundary")
    if args.nx is not None:
        _reject_flags(args, "an --nx lattice", ("n",), use="--nx/--ny")
        return Lattice.square(args.nx, args.ny, boundary=boundary or default_boundary_2d)
    if args.ny is not None:
        raise ValueError("--ny needs --nx")
    if n is None:
        raise ValueError("specify --n for chains or --nx/--ny for lattices")
    return Lattice.chain(int(n), boundary=boundary or default_boundary_1d)


_SIZE_FLAGS = ("n", "nx", "ny", "boundary")
# bounds' table size, and the time sweep, drive and device file of synthesis/dyson
_DEVICE_MODE_FLAGS = ("size", "sweep", "g", "delta", "omega", "params")


def _reject_flags(
    args, what: str, flags: tuple[str, ...] = ("nx", "ny", "boundary"), use: str | None = "--n"
) -> None:
    """Refuse the ``flags`` that ``what`` would ignore yet echo in its config."""
    given = [f"--{k.replace('_', '-')}" for k in flags if getattr(args, k) is not None]
    if given:
        hint = f"; use {use}" if use else ""
        raise ValueError(f"{what} takes no {'/'.join(given)}{hint}")


def _uniform_device(
    args, n: int | None, g_fb=1.0, delta_fb=10.0, omega_fb=0.0
) -> DeviceParams:
    """Uniform-chain device with flag > file > fallback precedence."""
    cfg = _file_config(args)
    structured = any(k == "omega_q" or str(k).startswith("omega_q.") for k in cfg)
    if structured:
        p = DeviceParams.from_config(cfg)
        omega = p.omega if args.delta is None else p.omega_q - args.delta
        Omega = p.Omega if args.omega is None else np.full(p.n, args.omega)
        g = p.g if args.g is None else np.full(p.g.size, args.g)
        return replace(p, omega=omega, Omega=Omega, g=g)
    g = args.g if args.g is not None else float(cfg.get("g", g_fb))
    delta = args.delta if args.delta is not None else float(cfg.get("delta", delta_fb))
    omega = args.omega if args.omega is not None else float(cfg.get("Omega", omega_fb))
    nn = int(n if n is not None else cfg.get("n", 2))
    return DeviceParams.uniform_chain(nn, g=g, delta=delta, Omega=omega)


def _device_echo(p: DeviceParams) -> dict:
    return {
        "n": p.n,
        "omega_q": [float(v) for v in p.omega_q],
        "omega": [float(v) for v in p.omega],
        "Omega": [float(v) for v in p.Omega],
        "phi": [float(v) for v in p.phi],
        "g": [float(v) for v in p.g],
    }


def _parse_sweep(spec: str) -> tuple[str, np.ndarray]:
    name, _, rest = spec.partition("=")
    parts = rest.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("sweep spec must be name=start:stop:points[:geom]")
    start, stop, npts = float(parts[0]), float(parts[1]), int(parts[2])
    if npts < 1:
        raise ValueError("sweep needs at least one point")
    if len(parts) == 4 and parts[3] == "geom":
        values = np.geomspace(start, stop, npts)
    else:
        values = np.linspace(start, stop, npts)
    return name, values


def _sweep_map(args, values, fn):
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            return list(pool.map(fn, values))
    return [fn(v) for v in values]


def _parse_observables(specs: list[str] | None, n: int) -> tuple[list[PauliSum], list[str]]:
    specs = specs or ["sz-total"]
    obs, names = [], []
    for spec in specs:
        if spec == "sz-total":
            total = PauliSum.zero(n)
            for k in range(n):
                total = total + PauliSum.from_sites(n, {k: "Z"})
            obs.append(total)
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
    dim = 1 << n
    psi = np.zeros(dim, dtype=complex)
    if bits is None:
        psi[0] = 1.0
        return psi
    if len(bits) != n or set(bits) - {"0", "1"}:
        raise ValueError("initial state must be a length-n bit string")
    idx = sum(int(b) << k for k, b in enumerate(bits))
    psi[idx] = 1.0
    return psi


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------


def _cmd_hamiltonian(args) -> None:
    kind = args.kind
    resolved: dict = {}
    if kind in _CANONICAL_KINDS:
        _reject_flags(args, f"canonical kind {kind}", ("g", "delta", "omega"), use=None)
        default_2d = "periodic" if kind in _2D_KINDS else "open"
        lat = _lattice_from_args(args, _file_config(args), default_boundary_2d=default_2d)
        h = build_canonical(HamiltonianKind(kind), lat, j=args.j, phi=args.phi)
        resolved["lattice"] = {"nx": lat.nx, "ny": lat.ny, "boundary": lat.boundary}
    else:
        _reject_flags(args, f"device kind {kind}")
        if args.n is None and not args.params:
            raise ValueError("device-based kinds need --n or --params")
        p = _uniform_device(args, args.n)
        resolved["device"] = _device_echo(p)
        if kind == "lab":
            h = build_lab_frame(p, args.t)
        elif kind == "qf_device":
            h = build_qf_effective(p, DriveConfig(args.drive))
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
        _reject_flags(args, "verify-frames --params", tuple(_LADDER), use=None)
        p = DeviceParams.from_config(load_config(args.params))
        return p, {"device": _device_echo(p)}
    flags = {k: d if getattr(args, k) is None else getattr(args, k) for k, d in _LADDER.items()}
    n, delta = flags["n"], flags["delta"]
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

    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        if name not in ("scale", "omega-ratio"):
            raise ValueError("verify-frames sweeps over scale (alias omega-ratio)")
        results = _sweep_map(args, [float(v) for v in values], run)
    else:
        results = [run(1.0)]
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
    if not args.realistic:
        _reject_flags(args, "simulate without --realistic", ("g", "delta", "omega"), use=None)
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
    trace = simulate(schedule, psi0, obs, observable_names=names)
    results = []
    for b in range(trace.times.size):
        row = {
            "block": b + 1,
            "time": float(trace.times[b]),
            "norm": float(trace.norms[b]),
        }
        for i, name in enumerate(trace.observable_names):
            row[name] = float(trace.expectations[b, i])
        results.append(row)
    payload = {"config": _config_echo(args, resolved), "results": results}
    header = ["block", "time", "norm", *trace.observable_names]
    rows = [header] + [[r[h] for h in header] for r in results]
    _emit(args, payload, rows)


def _cmd_errors(args) -> None:
    which = args.which
    resolved: dict = {}
    if which in ("synthesis", "dyson"):
        _reject_flags(args, f"errors --which {which}")
        unread = ("size",) if which == "synthesis" else ("model", "size")
        _reject_flags(args, f"errors --which {which}", unread, use=None)
        p = _uniform_device(args, args.n)
        resolved["device"] = _device_echo(p)
        if which == "synthesis":
            model = args.model or "control"
            reports = _run_time_sweep(args, lambda t: err.synthesis_norm(model, p, t))
        else:
            reports = _run_time_sweep(args, lambda t: err.dyson_propagator_diff(p, t))
    elif which == "table1":
        _reject_flags(args, "errors --which table1", ("model", *_DEVICE_MODE_FLAGS), use=None)
        lat = _lattice_from_args(args, default_boundary_2d="periodic")
        reports = [err.table1_check(lat, j=args.j)]
    elif which == "trotter":
        if not args.model:
            raise ValueError("--model required for trotter commutators")
        _reject_flags(args, "errors --which trotter", _DEVICE_MODE_FLAGS, use=None)
        if args.model.startswith("xy2d"):
            lat = _lattice_from_args(args, default_boundary_2d="periodic")
        else:
            _reject_flags(args, f"trotter model {args.model}")
            lat = Lattice.chain(args.n if args.n is not None else 4)
        reports = [
            err.trotter_commutator(args.model, lat, j=args.j, seed=args.seed)
        ]
    elif which == "unitcell":
        unread = (*_SIZE_FLAGS, "model", *_DEVICE_MODE_FLAGS)
        _reject_flags(args, "errors --which unitcell", unread, use=None)
        reports = [err.unit_cell_report(j=args.j, seed=args.seed)]
    elif which == "bounds":
        if not args.model or args.size is None:
            raise ValueError("--model and --size required for bound tables")
        _reject_flags(args, "errors --which bounds", _SIZE_FLAGS, use="--size")
        unread = ("sweep", "delta", "omega", "params")
        _reject_flags(args, "errors --which bounds", unread, use=None)
        g = args.g if args.g is not None else 1.0
        reports = [err.bound_table(args.model, args.size, j=args.j, g=g)]
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(which)

    payload = {
        "config": _config_echo(args, resolved),
        "reports": [r.to_json_dict() for r in reports],
    }
    rows = [[*reports[0].to_csv_rows()[0], "t"]]
    for rep in reports:
        rows += [[*row, rep.params.get("t", "")] for row in rep.to_csv_rows()[1:]]
    _emit(args, payload, rows)


def _run_time_sweep(args, run) -> list:
    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        if name != "t":
            raise ValueError("time sweeps use t=start:stop:points")
        return _sweep_map(args, [float(v) for v in values], run)
    return [run(args.t)]


def _cmd_compile(args) -> None:
    model = _target_model(args)
    schedule = compile_model(model, fuse_layers=args.fuse)
    payload = {
        "config": _config_echo(args, _resolved_model(model)),
        "schedule": schedule.to_json_dict(),
    }
    rows = [["step", "type", "kind_or_drive", "support_or_duration"]]
    for i, step in enumerate(schedule.to_json_dict()["steps"]):
        if step["type"] == "gate":
            support = step["support"]
            if isinstance(support, list):
                support = "+".join(str(s) for s in support)
            rows.append([i, "gate", step["kind"], support])
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1 (got {args.threads})")
        _COMMANDS[args.command](args)
    except DenseLimitError as exc:
        _fail("resource", str(exc))
        return 3
    except ConvergenceError as exc:
        _fail("convergence", str(exc))
        return 4
    except (ValueError, KeyError, OSError) as exc:
        _fail("usage", str(exc))
        return 2
    return 0


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
