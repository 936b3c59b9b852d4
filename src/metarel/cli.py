"""Command-line front end: parameter sweeps, bandwidth searches, data
ingestion, closed-form vs Monte Carlo comparisons, and CSV/JSON emission.

Output files are deterministic for a fixed spec and seed: full-precision
floats, no timestamps.  Exit codes: 0 ok, 1 ``validate`` found a failed
criterion, 2 usage error, 3 numeric error, 4 ingest error.
"""

from __future__ import annotations

import argparse
import functools
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
MC_NOTICE = (
    f"MC omitted: p1 >= {EXTREME_P1} (closed forms emitted; use --force to override)"
)

_UNHASHED = frozenset({"seed", "out", "format", "config", "func"})


def _spec_hash(args, **parsed) -> str:
    """Short digest of everything that defines a run's rows.

    That is every parsed flag of the subcommand except those that cannot
    change a row: ``seed`` (the record carries it), ``out``, ``format`` and
    ``config`` (its keys arrive as flags), plus argparse's ``func``.
    ``parsed`` overrides raw values with their parsed form, so spellings of
    one grid hash alike.
    """
    spec = {k: v for k, v in vars(args).items() if k not in _UNHASHED}
    spec.update(parsed)
    payload = json.dumps(spec, sort_keys=True)
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
    _write(args.out, record.to_csv() if args.format == "csv" else record.to_json())


def _write(out: Optional[str], text: str) -> None:
    """Write ``text`` to the path ``out``, or to stdout when it is None."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)
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


def _inject_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Expand --config into flags placed before the explicit ones.

    Each key names a flag of the subcommand; a flag that takes no argument
    takes ``true`` (set) or ``false`` (left out).  argparse keeps the last
    occurrence of a repeated option, so values given on the command line
    take precedence over the config file.
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
    values = load_config(path)
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if at is None or argv[at] not in commands:
        return argv  # argparse reports the missing or unknown subcommand
    flags = commands[argv[at]]._option_string_actions
    injected: list[str] = []
    for key, value in values.items():
        action = flags.get(f"--{key}")
        if action is None:
            raise UsageError(f"{path}: {argv[at]} has no flag --{key}")
        if action.nargs != 0:
            injected.extend([f"--{key}", value])
        elif value.lower() == "true":
            injected.append(f"--{key}")
        elif value.lower() != "false":
            raise UsageError(f"{path}: {key} takes true or false, not {value!r}")
    # insert right after the subcommand token
    return argv[: at + 1] + injected + argv[at + 1 :]


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


def _parse_trials(text: str) -> tuple[int, ...]:
    parts = _numbers("--trials", text.split(","), int)
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise UsageError("--trials must be 3 positive integers N0,N1,N2")
    return parts


def _points(axis: str, grid, p1, p2) -> list[tuple[float, float]]:
    """The (p1, p2) targets of each grid entry: the swept target takes the
    entry and the other keeps its flag's value (the bw axis sweeps neither)."""
    for name, fixed in (("p1", p1), ("p2", p2)):
        if axis != name and fixed is None:
            raise UsageError(f"sweeping {axis} requires a fixed --{name}")
    points = [(g if axis == "p1" else p1, g if axis == "p2" else p2) for g in grid]
    if any(not 0.0 < p < 1.0 for point in points for p in point):
        raise UsageError("p1 and p2 targets must lie strictly inside (0, 1)")
    return points


def _mc_trials(args, points) -> Optional[tuple[int, ...]]:
    """The parsed ``--trials`` when the MC columns run, else None.

    At p1 >= EXTREME_P1 the MC estimate needs prohibitive trial counts, so
    without ``--force``, ``--method monte_carlo`` is a usage error and
    ``--method both`` emits only the closed forms, with MC_NOTICE.
    """
    if args.method == "closed_form":
        return None
    trials = _parse_trials(args.trials)
    if args.force or max(p1 for p1, _ in points) < EXTREME_P1:
        return trials
    if args.method == "monte_carlo":
        raise UsageError(
            f"Monte Carlo at p1 >= {EXTREME_P1} needs prohibitive trial "
            "counts; use the closed forms or pass --force"
        )
    return None


def _sweep(args, spec_hash: str, columns, rows, points, trials, mc_grid, meta) -> int:
    """Emit the closed-form ``rows``, one per point, plus R_mc and stderr
    when ``trials`` is set.

    ``mc_grid(p1s, p2s, trials)`` estimates every (p1, p2) cell from one
    sample set.  One of p1s and p2s holds a single value, so MC cell k is
    point k.
    """
    if trials is not None:
        p1s = sorted({p1 for p1, _ in points})
        p2s = sorted({p2 for _, p2 in points})
        est = mc_grid(p1s, p2s, trials)
        columns = [*columns, "R_mc", "stderr"]
        rows = [
            (*row, float(value), float(stderr))
            for row, value, stderr in zip(rows, est.values.flat, est.stderr.flat)
        ]
    elif args.method != "closed_form":
        meta["notice"] = MC_NOTICE
        print(f"notice: {MC_NOTICE}", file=sys.stderr)
    _emit(args, spec_hash, columns, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_canonical(args) -> int:
    grid = _parse_grid("--grid", args.grid)
    points = _points(args.axis, grid, args.p1, args.p2)
    trials = _mc_trials(args, points)
    if (args.q is None) == any(v is None for v in (args.l, args.bw, args.tth)):
        raise UsageError("give exactly one of --q or (--l, --bw, --tth)")
    q = can.qos_threshold(args.l, args.bw, args.tth) if args.q is None else args.q
    params = can.CanonicalParams(
        intensity=args.intensity,
        alpha=args.alpha,
        zeta=args.zeta,
        q=q,
        mode=args.mode,
        n_points=args.n_points,
    )
    rows = [
        (
            g,
            can.r2_single_interferer(p1, p2, q, args.alpha, args.zeta),
            can.r2_multi_interferer(p1, p2, q, args.alpha, args.zeta),
        )
        for g, (p1, p2) in zip(grid, points)
    ]
    meta = {
        "command": "canonical",
        "axis": args.axis,
        "mode": args.mode,
        "units": "axis dimensionless; reliabilities dimensionless",
    }
    columns = ["axis", "R_closed_single", "R_closed_multi"]

    def mc_grid(p1s, p2s, trials):
        return can.run_canonical_mc_grid(params, q, p1s, p2s, trials, args.seed)

    return _sweep(args, _spec_hash(args, grid=grid), columns, rows, points, trials, mc_grid, meta)


def cmd_bandwidth(args) -> int:
    targets = _parse_grid("--targets", args.targets)
    orders = _numbers("--orders", args.orders.split(","), int)
    can.check_bandwidth_targets(targets, orders)
    columns = ["target"] + [f"W_order{o}_hz" for o in orders]
    rows = []
    for target in targets:
        row = [target]
        for order in orders:
            row.append(
                can.required_bandwidth(
                    target, order, args.p1, args.p2, args.w_low, args.w_high,
                    l_bits=args.l, deadline_s=args.tth, alpha=args.alpha,
                    zeta=args.zeta, mode=args.mode,
                )
            )
        rows.append(tuple(row))
    meta = {
        "command": "bandwidth",
        "mode": args.mode,
        "units": "target dimensionless; W columns in Hz",
    }
    _emit(args, _spec_hash(args, targets=targets), columns, rows, meta)
    return 0


def _thz_table(args, params: thz.ThzParams) -> thz.AbsorptionTable:
    if args.absorption_table:
        return thz.load_absorption_table(args.absorption_table)
    shape = "monotone" if args.scenario == 1 else "valley"
    print(
        f"notice: no absorption table given; using the built-in synthetic {shape} table",
        file=sys.stderr,
    )
    lo, hi = params.f_low_hz - 5e9, params.f_high_hz + 5e9
    if args.scenario == 1:
        return thz.synthetic_monotone_table(lo, hi, 0.8, 3.0)
    return thz.synthetic_valley_table(lo, hi, 2.2, 0.15, 2.8)


def cmd_thz(args) -> int:
    grid = _parse_grid("--grid", args.grid)
    anchors = _numbers("--anchors", args.anchors.split(","))
    if len(anchors) != 2:
        raise UsageError("--anchors must be two probabilities p_lo,p_hi")
    if args.axis == "bw" and args.method != "closed_form":
        raise UsageError("the bw axis has no Monte Carlo estimate; use --method closed_form")
    points = _points(args.axis, grid, args.p1, args.p2)
    trials = _mc_trials(args, points)
    params = thz.ThzParams(
        f_low_hz=args.f_low,
        f_high_hz=args.f_high,
        m_shape=args.m,
        rician_k=args.rician_k,
        q_override=args.q,
        c1_override=args.c1,
    )
    table = _thz_table(args, params)
    spec_hash = _spec_hash(
        args,
        grid=grid,
        # the table's contents, so copies of one file hash alike
        absorption_table=(
            [table.frequency_hz.tolist(), table.k_per_m.tolist()]
            if args.absorption_table
            else "<builtin>"
        ),
    )
    coeffs = calibrate_marcum_coeffs(
        math.sqrt(2.0 * params.rician_k), anchors[0], anchors[1]
    )
    if args.axis == "bw":
        sweep_rows, best = thz.optimal_bandwidth_sweep(
            params, table, args.p1, args.p2, grid, approx=coeffs
        )
        columns = ["axis", "R", "is_argmax"]
        rows = [(bw, r, 1.0 if bw == best else 0.0) for bw, r in sweep_rows]
    else:
        closed_value = thz.r2_scenario1 if args.scenario == 1 else thz.r2_scenario2
        columns = ["axis", "R"]
        rows = [
            (g, closed_value(p1, p2, params, table, approx=coeffs))
            for g, (p1, p2) in zip(grid, points)
        ]
    meta = {
        "command": "thz",
        "axis": args.axis,
        "scenario": args.scenario,
        "units": "axis dimensionless (bw in Hz); reliabilities dimensionless",
    }

    def mc_grid(p1s, p2s, trials):
        # the exact hook has the sampled fading loop's law at a fraction of
        # its cost
        return thz.run_thz_mc_grid(
            params, table, p1s, p2s, trials, args.seed, inner="exact_binomial"
        )

    return _sweep(args, spec_hash, columns, rows, points, trials, mc_grid, meta)


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
    results = acceptance.run_all(seed=args.seed)
    for result in results:
        print(result.report(), file=sys.stderr)
    payload = acceptance.results_to_json(results)
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_config(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None, help="flat key=value file")


def _add_common(sub: argparse.ArgumentParser) -> None:
    """--seed, --out and --config, shared by the sweeps and validate."""
    sub.add_argument("--seed", type=int, required=True, help="master RNG seed")
    sub.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    _add_config(sub)


def _add_sweep_common(sub: argparse.ArgumentParser) -> None:
    """The common flags plus --format, for the commands that emit a RunRecord."""
    _add_common(sub)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


# one parser per process: parsing leaves it unchanged, and no caller edits it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metarel",
        description="Hierarchical meta-distribution reliability: closed forms "
        "and nested Monte Carlo",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("canonical", help="cellular SIR model sweeps")
    _add_sweep_common(p)
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
    _add_sweep_common(p)
    p.add_argument("--targets", required=True, help="target reliabilities grid")
    p.add_argument("--orders", type=str, default="0,1,2")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--alpha", type=float, default=3.5)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--l", type=float, default=256.0)
    p.add_argument("--tth", type=float, default=1e-3)
    p.add_argument("--mode", choices=can.MODES, default="single_interferer")
    p.add_argument("--w-low", type=float, default=1e6)
    p.add_argument("--w-high", type=float, default=1e10)
    p.set_defaults(func=cmd_bandwidth)

    p = subs.add_parser("thz", help="THz frequency-hopping model sweeps")
    _add_sweep_common(p)
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
        default=",".join(map(repr, thz.DEFAULT_ANCHORS)),
        help="collocation anchors for the Marcum approximation",
    )
    p.add_argument("--trials", type=str, default="2000,200,2000", help="N0,N1,N2")
    p.add_argument("--force", action="store_true", help="allow extreme-p1 MC")
    p.set_defaults(func=cmd_thz)

    p = subs.add_parser("reduce-order", help="integrate an MD curve over one threshold")
    _add_config(p)
    p.add_argument("--input", required=True, help="CSV/JSON curve file")
    p.add_argument("--p-column", type=str, default="axis")
    p.add_argument("--value-column", type=str, default="R_mc")
    p.set_defaults(func=cmd_reduce_order)

    p = subs.add_parser("validate", help="run the acceptance suite")
    _add_common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(_inject_config(parser, argv))
        return args.func(args)
    except (UsageError, ConfigurationError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SearchError, CalibrationError, ScenarioError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
