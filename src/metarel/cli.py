"""Command-line front end: parameter sweeps, bandwidth searches, data
ingestion, closed-form vs Monte Carlo comparisons, and CSV/JSON emission.

Output files are deterministic for a fixed spec and seed: full-precision
floats, no timestamps.  Exit codes: 0 ok, 2 usage error, 3 numeric or
accuracy error, 4 ingest error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import acceptance
from . import canonical as can
from . import thz
from .errors import (
    AccuracyError,
    CalibrationError,
    ConfigurationError,
    DomainError,
    IngestError,
    ScenarioError,
    SearchError,
    UsageError,
)
from .mdcore import reduce_order
from .specfun import calibrate_marcum_coeffs

EXTREME_P1 = 0.999  # MC refused at or beyond this link target without --force

SCHEMA_VERSION = 1

CANONICAL_AXES = ("p1", "p2")
THZ_AXES = ("p1", "p2", "bw")
METHODS = ("closed_form", "monte_carlo", "both")


def _spec_hash(model: str, method: str, axis: str, grid, fixed: dict) -> str:
    """Short digest of one swept axis over a grid, everything else fixed."""
    payload = json.dumps(
        {
            "model": model,
            "method": method,
            "axis": axis,
            "grid": list(grid),
            "fixed": {k: fixed[k] for k in sorted(fixed)},
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """A completed sweep: metadata plus per-point results."""

    spec_hash: str
    seed: Optional[int]
    version: str
    columns: tuple[str, ...]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [f"# schema={SCHEMA_VERSION}"]
        for key in sorted(self.meta):
            lines.append(f"# {key}={self.meta[key]}")
        lines.append(f"# seed={self.seed}")
        lines.append(f"# spec_hash={self.spec_hash}")
        lines.append(f"# version={self.version}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        data = {col: [] for col in self.columns}
        for row in self.rows:
            for col, v in zip(self.columns, row):
                data[col].append(v if v is None or isinstance(v, str) else float(v))
        payload = {
            "schema": SCHEMA_VERSION,
            "meta": self.meta,
            "seed": self.seed,
            "spec_hash": self.spec_hash,
            "version": self.version,
            "columns": list(self.columns),
            "data": data,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return repr(float(v))


def read_run_record(path: str) -> RunRecord:
    """Re-parse an emitted CSV or JSON file into a RunRecord."""
    try:
        with open(path, "r") as fh:
            return _parse_run_record(fh.read())
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise IngestError(f"cannot read run record {path}: {exc}") from exc


def _parse_run_record(text: str) -> RunRecord:
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        columns = tuple(payload["columns"])
        n = len(payload["data"][columns[0]]) if columns else 0
        rows = [
            tuple(payload["data"][col][i] for col in columns) for i in range(n)
        ]
        return RunRecord(
            spec_hash=payload["spec_hash"],
            seed=payload["seed"],
            version=payload["version"],
            columns=columns,
            rows=rows,
            meta=payload.get("meta", {}),
        )
    meta = {}
    seed: Optional[int] = None
    spec_hash = ""
    version = ""
    columns: tuple[str, ...] = ()
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key, value = key.strip(), value.strip()
                if key == "seed":
                    seed = None if value == "None" else int(value)
                elif key == "spec_hash":
                    spec_hash = value
                elif key == "version":
                    version = value
                elif key != "schema":
                    meta[key] = value
            continue
        if not columns:
            columns = tuple(line.split(","))
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise IngestError(f"row width {len(cells)} != header width {len(columns)}")
        rows.append(tuple(None if c == "" else float(c) for c in cells))
    if not columns:
        raise IngestError("no header row found")
    return RunRecord(
        spec_hash=spec_hash,
        seed=seed,
        version=version,
        columns=columns,
        rows=rows,
        meta=meta,
    )


def _emit(args, spec_hash: str, columns, rows: list[tuple], meta: dict) -> None:
    """Write one sweep as a RunRecord to ``--out`` (default stdout) in ``--format``."""
    record = RunRecord(
        spec_hash=spec_hash,
        seed=args.seed,
        version=__version__,
        columns=tuple(columns),
        rows=rows,
        meta=meta,
    )
    text = record.to_csv() if args.format == "csv" else record.to_json()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Config file and argument plumbing
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read config {path}: {exc}") from exc
    return values


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config into flags placed before the explicit ones.

    argparse keeps the last occurrence of a repeated option, so values given
    on the command line take precedence over the config file.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return argv
    injected: list[str] = []
    for key, value in load_config(path).items():
        injected.extend([f"--{key}", value])
    # insert right after the subcommand token
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            return argv[: i + 1] + injected + argv[i + 1 :]
    return argv + injected


def _numbers(flag: str, cells, kind=float) -> tuple:
    """Entries of a list-valued flag converted by ``kind``; a malformed one is a usage error."""
    try:
        return tuple(kind(c) for c in cells)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_grid(flag: str, text: str) -> tuple[float, ...]:
    """Grid syntax: comma list `a,b,c` or range `start:stop:count`, ascending."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("range grid must be start:stop:count")
        start, stop = _numbers(flag, parts[:2])
        (count,) = _numbers(flag, parts[2:], int)
        if count < 1:
            raise UsageError("grid count must be >= 1")
        grid = tuple(np.linspace(start, stop, count).tolist())
    else:
        grid = _numbers(flag, text.split(","))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError("sweep grid must be strictly ascending")
    return grid


def _parse_trials(text: str, n: int) -> tuple[int, ...]:
    parts = _numbers("--trials", text.split(","), int)
    if len(parts) != n or any(p < 1 for p in parts):
        raise UsageError(f"--trials must be {n} positive integers N0,..,N{n-1}")
    return parts


def _canonical_params(args) -> can.CanonicalParams:
    if args.q is not None:
        qos_kwargs = {"q": args.q}
    elif args.l is not None and args.bw is not None and args.tth is not None:
        qos_kwargs = {
            "l_bits": args.l,
            "bandwidth_hz": args.bw,
            "deadline_s": args.tth,
        }
    else:
        raise UsageError("give --q or all of --l --bw --tth")
    return can.CanonicalParams(
        intensity=args.intensity,
        alpha=args.alpha,
        zeta=args.zeta,
        mode=args.mode,
        n_points=args.n_points,
        **qos_kwargs,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_canonical(args) -> int:
    grid = _parse_grid("--grid", args.grid)
    spec_hash = _spec_hash(
        "canonical",
        args.method,
        args.axis,
        grid,
        {
            "alpha": args.alpha,
            "zeta": args.zeta,
            "q": args.q,
            "l": args.l,
            "bw": args.bw,
            "tth": args.tth,
            "p1": args.p1,
            "p2": args.p2,
            "mode": args.mode,
            "intensity": args.intensity,
            "trials": args.trials,
        },
    )
    params = _canonical_params(args)
    q = params.qos()
    if any(not 0.0 < g < 1.0 for g in grid):
        raise UsageError("p1/p2 grids must lie strictly inside (0, 1)")
    if args.axis == "p1":
        p1s = grid
        if args.p2 is None:
            raise UsageError("sweeping p1 requires a fixed --p2")
        p2s = (args.p2,) * len(grid)
    else:
        if args.p1 is None:
            raise UsageError("sweeping p2 requires a fixed --p1")
        p1s = (args.p1,) * len(grid)
        p2s = grid

    want_mc = args.method in ("monte_carlo", "both")
    mc_notice = None
    if want_mc:
        extreme = max(p1s) >= EXTREME_P1
        if extreme and not args.force:
            if args.method == "monte_carlo":
                raise UsageError(
                    f"Monte Carlo at p1 >= {EXTREME_P1} needs prohibitive trial "
                    "counts; use the closed forms or pass --force"
                )
            mc_notice = (
                f"MC omitted: p1 >= {EXTREME_P1} (closed forms emitted; use "
                "--force to override)"
            )
            want_mc = False
    mc_grid = None
    if want_mc:
        trials = _parse_trials(args.trials, 3)
        mc_grid = can.run_canonical_mc_grid(
            params,
            q,
            sorted(set(p1s)),
            sorted(set(p2s)),
            trials,
            args.seed,
        )
    if mc_notice:
        print(f"notice: {mc_notice}", file=sys.stderr)

    columns = ["axis", "R_closed_single", "R_closed_multi"]
    if want_mc:
        columns += ["R_mc", "stderr"]
    rows = []
    for g, p1, p2 in zip(grid, p1s, p2s):
        row = [
            g,
            can.r2_single_interferer(p1, p2, q, args.alpha, args.zeta),
            can.r2_multi_interferer(p1, p2, q, args.alpha, args.zeta),
        ]
        if want_mc:
            i = mc_grid.p1_grid.index(p1)
            j = mc_grid.p2_grid.index(p2)
            row += [float(mc_grid.values[i, j]), float(mc_grid.stderr[i, j])]
        rows.append(tuple(row))
    meta = {
        "command": "canonical",
        "axis": args.axis,
        "mode": args.mode,
        "units": "axis dimensionless; reliabilities dimensionless",
    }
    if mc_notice:
        meta["notice"] = mc_notice
    _emit(args, spec_hash, columns, rows, meta)
    return 0


def cmd_bandwidth(args) -> int:
    targets = _parse_grid("--targets", args.targets)
    if any(not 0.0 < t < 1.0 for t in targets):
        raise UsageError("targets must lie strictly inside (0, 1)")
    spec_hash = _spec_hash(
        "bandwidth",
        "closed_form",
        "target",
        targets,
        {
            "alpha": args.alpha,
            "zeta": args.zeta,
            "l": args.l,
            "tth": args.tth,
            "p1": args.p1,
            "p2": args.p2,
            "mode": args.mode,
            "intensity": args.intensity,
            "w_low": args.w_low,
            "w_high": args.w_high,
        },
    )
    params = can.CanonicalParams(
        intensity=args.intensity,
        alpha=args.alpha,
        zeta=args.zeta,
        l_bits=args.l,
        bandwidth_hz=args.w_low,
        deadline_s=args.tth,
        mode=args.mode,
    )
    orders = _numbers("--orders", args.orders.split(","), int)
    if any(o not in (0, 1, 2) for o in orders):
        raise UsageError("orders must be a comma list drawn from 0,1,2")
    columns = ["target"] + [f"W_order{o}_hz" for o in orders]
    rows = []
    for target in targets:
        row = [target]
        for order in orders:
            row.append(
                can.required_bandwidth(
                    target, order, params, args.p1, args.p2, args.w_low, args.w_high
                )
            )
        rows.append(tuple(row))
    meta = {
        "command": "bandwidth",
        "mode": args.mode,
        "units": "target dimensionless; W columns in Hz",
    }
    _emit(args, spec_hash, columns, rows, meta)
    return 0


def _thz_table(args, params: thz.ThzParams) -> thz.AbsorptionTable:
    if args.absorption_table:
        table = thz.load_absorption_table(args.absorption_table)
    elif args.scenario == 1:
        table = thz.synthetic_monotone_table(
            params.f_low_hz - 5e9, params.f_high_hz + 5e9, 0.8, 3.0
        )
        print(
            "notice: no absorption table given; using the built-in synthetic "
            "monotone table",
            file=sys.stderr,
        )
    else:
        table = thz.synthetic_valley_table(
            params.f_low_hz - 5e9, params.f_high_hz + 5e9, 2.2, 0.15, 2.8
        )
        print(
            "notice: no absorption table given; using the built-in synthetic "
            "valley table",
            file=sys.stderr,
        )
    return table


def cmd_thz(args) -> int:
    grid = _parse_grid("--grid", args.grid)
    spec_hash = _spec_hash(
        "thz",
        args.method,
        args.axis,
        grid,
        {
            "m": args.m,
            "scenario": args.scenario,
            "p1": args.p1,
            "p2": args.p2,
            "f_low": args.f_low,
            "f_high": args.f_high,
            "q": args.q,
            "c1": args.c1,
            "k_shape": args.rician_k,
            "anchors": args.anchors,
            "table": args.absorption_table or "<builtin>",
            "trials": args.trials,
        },
    )
    anchors = _numbers("--anchors", args.anchors.split(","))
    if len(anchors) != 2:
        raise UsageError("--anchors must be two probabilities p_lo,p_hi")
    want_mc = args.method in ("monte_carlo", "both")
    if want_mc and args.axis == "bw":
        raise UsageError("the bw axis has no Monte Carlo estimate; use --method closed_form")
    if want_mc and not args.force and max(grid if args.axis == "p1" else [args.p1]) >= EXTREME_P1:
        raise UsageError(
            f"Monte Carlo at p1 >= {EXTREME_P1} needs prohibitive trial "
            "counts; use the numeric engines or pass --force"
        )
    trials = _parse_trials(args.trials, 3) if want_mc else None
    params = thz.ThzParams(
        f_low_hz=args.f_low,
        f_high_hz=args.f_high,
        m_shape=args.m,
        rician_k=args.rician_k,
        q_override=args.q,
        c1_override=args.c1,
    )
    table = _thz_table(args, params)
    coeffs = calibrate_marcum_coeffs(
        math.sqrt(2.0 * params.rician_k), anchors[0], anchors[1]
    )
    closed_value = thz.r2_scenario1 if args.scenario == 1 else thz.r2_scenario2

    columns = ["axis", "R"]
    rows = []
    if args.axis == "bw":
        sweep_rows, best = thz.optimal_bandwidth_sweep(
            params, table, args.p1, args.p2, grid, approx=coeffs
        )
        columns.append("is_argmax")
        for bw, r in sweep_rows:
            rows.append((bw, r, 1.0 if bw == best else 0.0))
    else:
        mc_grid = None
        if want_mc:
            p1s = grid if args.axis == "p1" else (args.p1,)
            p2s = grid if args.axis == "p2" else (args.p2,)
            mc_grid = thz.run_thz_mc_grid(params, table, p1s, p2s, trials, args.seed)
            columns += ["R_mc", "stderr"]
        for g in grid:
            p1 = g if args.axis == "p1" else args.p1
            p2 = g if args.axis == "p2" else args.p2
            row = [g, closed_value(p1, p2, params, table, approx=coeffs)]
            if mc_grid is not None:
                i = mc_grid.p1_grid.index(p1)
                j = mc_grid.p2_grid.index(p2)
                row += [float(mc_grid.values[i, j]), float(mc_grid.stderr[i, j])]
            rows.append(tuple(row))
    meta = {
        "command": "thz",
        "axis": args.axis,
        "scenario": args.scenario,
        "units": "axis dimensionless (bw in Hz); reliabilities dimensionless",
    }
    _emit(args, spec_hash, columns, rows, meta)
    return 0


def cmd_reduce_order(args) -> int:
    record = read_run_record(args.input)
    if args.p_column not in record.columns or args.value_column not in record.columns:
        raise IngestError(
            f"need columns {args.p_column!r} and {args.value_column!r}; "
            f"file has {record.columns}"
        )
    pi = record.columns.index(args.p_column)
    vi = record.columns.index(args.value_column)
    curve = [(row[pi], row[vi]) for row in record.rows]
    if any(
        type(cell) not in (int, float) or not math.isfinite(cell)
        for point in curve
        for cell in point
    ):
        raise IngestError(
            f"columns {args.p_column!r} and {args.value_column!r} need a finite "
            f"number in every row of {args.input}"
        )
    print(repr(float(reduce_order(curve))))
    return 0


def cmd_validate(args) -> int:
    skip_thz = False
    skip_reason = ""
    if args.absorption_table is not None:
        try:
            thz.load_absorption_table(args.absorption_table)
        except IngestError as exc:
            skip_thz = True
            skip_reason = f"absorption table unusable ({exc}); THz checks skipped"
            print(f"warning: {skip_reason}", file=sys.stderr)

    perturbed = None
    if args.perturb_theorem2:
        # self-test hook: flip the multi-interferer distance factor so the
        # ordering/consistency checks must fail
        perturbed = can._multi_p1hat_factor

        def flipped(alpha: float, zeta: float) -> float:
            return can.interference_ratio_expectation(alpha, zeta) ** (-1.0 / alpha)

        can._multi_p1hat_factor = flipped
    try:
        results = acceptance.run_all(
            seed=args.seed,
            quick=args.quick,
            skip_thz=skip_thz,
            skip_reason=skip_reason,
        )
    finally:
        if perturbed is not None:
            can._multi_p1hat_factor = perturbed
    for result in results:
        print(result.report(), file=sys.stderr)
    payload = acceptance.results_to_json(results)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, need_seed: bool = True) -> None:
    sub.add_argument("--seed", type=int, required=need_seed, help="master RNG seed")
    sub.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", type=str, default=None, help="flat key=value file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metarel",
        description="Hierarchical meta-distribution reliability: closed forms "
        "and nested Monte Carlo",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("canonical", help="cellular SIR model sweeps")
    _add_common(p)
    p.add_argument("--axis", choices=CANONICAL_AXES, required=True)
    p.add_argument("--grid", required=True, help="a,b,c or start:stop:count")
    p.add_argument("--method", choices=METHODS, default="closed_form")
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--p2", type=float, default=None)
    p.add_argument("--alpha", type=float, default=3.5)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--l", type=float, default=None, help="packet size, bits")
    p.add_argument("--bw", type=float, default=None, help="bandwidth, Hz")
    p.add_argument("--tth", type=float, default=None, help="deadline, s")
    p.add_argument("--intensity", type=float, default=1e-4, help="BS density, 1/m^2")
    p.add_argument("--mode", choices=can.MODES, default="single_interferer")
    p.add_argument("--n-points", type=int, default=200)
    p.add_argument("--trials", type=str, default="2000,200,2000", help="N0,N1,N2")
    p.add_argument("--force", action="store_true", help="allow extreme-p1 MC")
    p.set_defaults(func=cmd_canonical)

    p = subs.add_parser("bandwidth", help="required bandwidth per MD order")
    _add_common(p)
    p.add_argument("--targets", required=True, help="target reliabilities grid")
    p.add_argument("--orders", type=str, default="0,1,2")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--alpha", type=float, default=3.5)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--l", type=float, default=256.0)
    p.add_argument("--tth", type=float, default=1e-3)
    p.add_argument("--intensity", type=float, default=1e-4)
    p.add_argument("--mode", choices=can.MODES, default="single_interferer")
    p.add_argument("--w-low", type=float, default=1e6)
    p.add_argument("--w-high", type=float, default=1e10)
    p.set_defaults(func=cmd_bandwidth)

    p = subs.add_parser("thz", help="THz frequency-hopping model sweeps")
    _add_common(p)
    p.add_argument("--axis", choices=THZ_AXES, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--method", choices=METHODS, default="closed_form")
    p.add_argument("--scenario", type=int, choices=(1, 2), default=1)
    p.add_argument("--p1", type=float, default=0.99)
    p.add_argument("--p2", type=float, default=0.5)
    p.add_argument("--m", type=int, default=0, help="carrier pdf shape factor")
    p.add_argument("--f-low", type=float, default=340e9)
    p.add_argument("--f-high", type=float, default=375e9)
    p.add_argument("--rician-k", type=float, default=2.0)
    p.add_argument("--q", type=float, default=None, help="override QoS threshold")
    p.add_argument("--c1", type=float, default=None, help="override path-loss composite")
    p.add_argument("--absorption-table", type=str, default=None)
    p.add_argument(
        "--anchors",
        type=str,
        default="0.99,0.9999999",
        help="collocation anchors for the Marcum approximation",
    )
    p.add_argument("--trials", type=str, default="2000,200,2000", help="N0,N1,N2")
    p.add_argument("--force", action="store_true", help="allow extreme-p1 MC")
    p.set_defaults(func=cmd_thz)

    p = subs.add_parser("reduce-order", help="integrate an MD curve over one threshold")
    _add_common(p, need_seed=False)
    p.add_argument("--input", required=True, help="CSV/JSON curve file")
    p.add_argument("--p-column", type=str, default="axis")
    p.add_argument("--value-column", type=str, default="R_mc")
    p.set_defaults(func=cmd_reduce_order)

    p = subs.add_parser("validate", help="run the acceptance suite")
    _add_common(p)
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.add_argument("--absorption-table", type=str, default=None)
    p.add_argument(
        "--perturb-theorem2",
        action="store_true",
        help="self-test hook: corrupt the multi-interferer factor (must fail)",
    )
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(list(sys.argv[1:] if argv is None else argv)))
        return args.func(args)
    except (UsageError, ConfigurationError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, SearchError, CalibrationError, ScenarioError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
