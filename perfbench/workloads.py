"""The benchmark's workloads: seeded inputs, the fixed list of operations
of each workload, and the output checks that decide which results failed.

Every operation goes through metarel's public surface: ``cli.main(argv)``
or a name in a module's ``__all__``.  Calls look the function up on its
module at call time, so the tracer's wrappers see them.

A *result* is one reliability value (with its standard error, where the
program reports one), one other reported number, or the calibrated Marcum
pair.  It fails when its operation raises, when ``cli.main`` returns a
nonzero exit code, or when its check fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from metarel import canonical as can
from metarel import cli, mdcore, specfun, stochgeom, thz

from perfbench import oracles

WORKLOADS = ("canonical-grid", "nested-mc", "thz-sweep")

# Canonical SIR model at the criterion-1 parameters.  Ratios are
# scale-free, so lambda*pi = 1.
ALPHA = 3.5
Q = 1.0
INTENSITY = 1.0 / math.pi
MODES = ("single_interferer", "multi_interferer")

# canonical-grid: (zeta=0.5, p2=0.5) and (zeta=0.2, p2=0.8) are atoms,
# where (1 - zeta)^n == p2 exactly (ROADMAP K4).
GRID_ZETAS = (0.2, 0.5, 1.0)
GRID_P1 = (0.8, 0.9)
GRID_P2 = (0.3, 0.5, 0.8)
GRID_TRIALS = (1000, 100, 1000)
BW_TARGETS = (0.3, 0.6, 0.9)
BW_ORDERS = (0, 1, 2)
BW_P1, BW_P2, BW_ZETA = 0.9, 0.6, 0.5
BW_LOW, BW_HIGH = 3e4, 1e10
BW_L_BITS, BW_TTH = 256.0, 1e-3  # the CLI defaults
FIRST_ORDER_P1 = (0.5, 0.8, 0.9)
FIRST_ORDER_TRIALS = (1000, 2000)  # (N0, outer)
THINNED = (3.5, 0.5, 200, 20_000)  # alpha, zeta, points, realizations

# nested-mc: single-point estimates away from the atoms.
NESTED_ZETA = 0.5
NESTED_POINTS = ((0.8, 0.3), (0.9, 0.6))
NESTED_TRIALS = (200, 50, 200)
# The multi-mode sampled operation raises at the seed commit (ROADMAP K1).
# Once it runs, about 100 active interferers make each inner batch ~10x
# the single-mode cost, so it stays small against the wall_s bound.
K1_TRIALS = (20, 10, 20)
ZEROTH_TRIALS = 10_000
THZ_MC_POINT = (0.5, 0.5)

# thz-sweep.  The radial engine's cost grows with the knots inside the band,
# so the valley tables carry half the default knot count.
VALLEY_KNOTS = 31
S1_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
S2_MONO_GRID = (0.3, 0.5, 0.7)
S2_VALLEY_GRID = (0.4, 0.7)
BW_SWEEP = (10e9, 25e9)
BW_SWEEP_F_LOW = 330e9
FIG6_GRID = (0.3, 0.7)
FIG6_P1 = 0.5
FIG6_ANCHORS = (0.3, 0.7)
FIG6_TRIALS = (500, 50, 400)
FIG6_FBAR = 375e9
THZ_P1 = 0.99  # the CLI default
DEFAULT_ANCHORS = (0.99, 0.9999999)  # the CLI default
# Scenario 2 on a monotone table must reproduce the Lambert-W form; the two
# agree to ~1e-15 at the seed commit.
S1_S2_TOL = 1e-6
# Criterion 8's allowance for the exponential Marcum approximation.
FIG6_MODEL_GAP = 0.03
CALIBRATION_RTOL = 1e-6


@dataclass
class Result:
    name: str
    ok: bool
    detail: str
    known: str = ""  # ROADMAP id of a known defect this result can show

    def __post_init__(self) -> None:
        self.ok = bool(self.ok)  # comparisons on numpy scalars give numpy bools


@dataclass
class Op:
    """One operation: ``run`` produces its output, ``payload`` the bytes
    that identify that output, ``check`` one Result per reported value."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[Result]]
    n_results: int
    payload: Callable[[Any], bytes] = lambda out: out.encode()
    known: str = ""  # ROADMAP id of a defect that makes the operation raise


@dataclass
class Workload:
    name: str
    ops: list[Op]
    rerun: str  # operation repeated for the determinism record
    # checks on what set-up computed, run after the timed region
    setup_checks: list[Callable[[], Result]] = field(default_factory=list)


class CliFailure(RuntimeError):
    """cli.main returned a nonzero exit code."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Running operations and judging results
# ---------------------------------------------------------------------------


def cli_run(argv: list[str]) -> Callable[[], str]:
    """Operation body: run cli.main in-process and return the file it wrote."""
    out = argv[argv.index("--out") + 1]

    def run() -> str:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CliFailure(f"cli.main returned {code}: {err.getvalue().strip()}")
        with open(out) as fh:
            return fh.read()

    return run


def parse_csv(text: str) -> list[dict[str, Optional[float]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    columns = lines[0].split(",")
    return [
        dict(zip(columns, (float(c) if c else None for c in line.split(","))))
        for line in lines[1:]
    ]


def rows_by_axis(text: str, grid) -> list[Optional[dict]]:
    rows = {row["axis"]: row for row in parse_csv(text)}
    return [rows.get(float(g)) for g in grid]


def judge(
    name: str,
    value: Optional[float],
    *,
    stderr: Optional[float] = None,
    expect: Optional[float] = None,
    tol: float = 0.0,
    one_sided: bool = False,
    unit_interval: bool = True,
    note: str = "",
) -> Result:
    """Finite value (in [0, 1] for reliabilities), stderr >= 0, and, when
    ``expect`` is given, |value - expect| <= tol (value >= expect - tol if
    one-sided)."""
    if value is None or not math.isfinite(value):
        return Result(name, False, f"value {value!r} is not finite")
    if unit_interval and not 0.0 <= value <= 1.0:
        return Result(name, False, f"value {value!r} outside [0, 1]")
    if stderr is not None and not (math.isfinite(stderr) and stderr >= 0.0):
        return Result(name, False, f"stderr {stderr!r} is not a finite number >= 0")
    detail = f"value={value!r}"
    if expect is None:
        return Result(name, True, detail + (f" ({note})" if note else ""))
    expect = float(expect)
    diff = value - expect
    ok = diff >= -tol if one_sided else abs(diff) <= tol
    rule = ">= ref - tol" if one_sided else "|diff| <= tol"
    detail += f" ref={expect!r} diff={diff:+.3e} tol={tol:.3e} ({rule}{'; ' + note if note else ''})"
    return Result(name, ok, detail)


def missing(name: str) -> Result:
    return Result(name, False, "value missing from the output")


def evaluate(op: Op, output: Any, error: Optional[BaseException]) -> list[Result]:
    """Results of one operation; a raised error fails every result."""
    if error is not None:
        reason = f"{type(error).__name__}: {error}"
        return [
            Result(f"{op.name}#{i}", False, reason, op.known) for i in range(op.n_results)
        ]
    results = op.check(output)
    if len(results) != op.n_results:
        raise AssertionError(
            f"{op.name}: check returned {len(results)} results, expected {op.n_results}"
        )
    return results


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


class Seeds:
    """Per-operation RNG seeds and input jitter, all drawn from --seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def next(self) -> int:
        return int(self._rng.integers(2**31 - 1))

    def jitter(self) -> float:
        """Factor within +-0.5% applied to a table's absorption levels; small
        enough that every seed keeps the same table shape and engine cost."""
        return 1.0 + 0.01 * (float(self._rng.random()) - 0.5)


def write_tables(seeds: Seeds, workdir: str, names) -> dict[str, str]:
    """Absorption-table CSVs; returns name -> path."""
    makers = {
        "mono": lambda j: thz.synthetic_monotone_table(335e9, 380e9, 0.8 * j, 3.0 * j),
        "valley": lambda j: thz.synthetic_valley_table(
            335e9, 380e9, 2.2 * j, 0.15 * j, 2.8 * j, n=VALLEY_KNOTS
        ),
        "sweep": lambda j: thz.synthetic_valley_table(
            325e9, 380e9, 2.2 * j, 0.15 * j, 2.8 * j, f_min=348e9, n=VALLEY_KNOTS
        ),
        "fig6": lambda j: thz.synthetic_valley_table(
            335e9, 380e9, 0.30 * j, 0.04 * j, 0.42 * j, f_min=352e9, n=VALLEY_KNOTS
        ),
    }
    paths = {}
    for name in names:
        path = os.path.join(workdir, f"{name}.csv")
        makers[name](seeds.jitter()).save_csv(path)
        paths[name] = path
    return paths


def canonical_params(zeta: float, mode: str) -> can.CanonicalParams:
    return can.CanonicalParams(intensity=INTENSITY, alpha=ALPHA, zeta=zeta, q=Q, mode=mode)


def fig6_params() -> thz.ThzParams:
    return thz.ThzParams(
        m_shape=1,
        q_override=1.0,
        c1_override=0.01 / FIG6_FBAR**2,
        f_low_hz=340e9,
        f_high_hz=375e9,
    )


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _fmt_int(values) -> str:
    return ",".join(str(int(v)) for v in values)


# ---------------------------------------------------------------------------
# canonical-grid
# ---------------------------------------------------------------------------


def _canonical_sweep(name: str, argv: list[str], zeta: float, mode: str, p1: float) -> Op:
    n0, n1, n2 = GRID_TRIALS

    def check(text: str) -> list[Result]:
        results = []
        for p2, row in zip(GRID_P2, rows_by_axis(text, GRID_P2)):
            cell = f"{name}/p2={p2}"
            if row is None:
                results += [missing(f"{cell}/{c}") for c in ("R_closed_single", "R_closed_multi", "R_mc")]
                continue
            atom = oracles.is_atom(zeta, p2)
            for column, law in (("R_closed_single", MODES[0]), ("R_closed_multi", MODES[1])):
                expect = oracles.r2_enumerated(p1, p2, Q, ALPHA, zeta, law)
                result = judge(f"{cell}/{column}", row.get(column), expect=expect, tol=1e-12,
                               note="strict-> enumeration of the N' pmf")
                # the closed forms count the atom term that strict '>' excludes
                result.known = "K4(i)" if atom else ""
                results.append(result)
            if atom:
                results.append(
                    judge(f"{cell}/R_mc", row.get("R_mc"), stderr=row.get("stderr"),
                          note="atom: recorded, not gated")
                )
                continue
            expect = oracles.r2_finite_n1(p1, p2, Q, ALPHA, zeta, mode, n1)
            results.append(
                judge(
                    f"{cell}/R_mc",
                    row.get("R_mc"),
                    stderr=row.get("stderr"),
                    expect=expect,
                    tol=oracles.mc_tolerance(expect, n2, p1, n0),
                    one_sided=mode == "multi_interferer",
                    note="finite-N1 law" + (", Theorem 2 lower bound" if mode != MODES[0] else ""),
                )
            )
        return results

    return Op(name, cli_run(argv), check, 3 * len(GRID_P2))


def _bandwidth_op(name: str, argv: list[str]) -> Op:
    def reliability(order: int, w: float) -> float:
        q = math.expm1(BW_L_BITS / (w * BW_TTH) * math.log(2.0))
        if order == 2:
            return oracles.r2_enumerated(BW_P1, BW_P2, q, ALPHA, BW_ZETA, MODES[0])
        if order == 1:
            return oracles.r1_enumerated(BW_P1, q, ALPHA, BW_ZETA, MODES[0])
        return oracles.r0_integrated(q, ALPHA, BW_ZETA, MODES[0])

    def check(text: str) -> list[Result]:
        rows = {row["target"]: row for row in parse_csv(text)}
        results = []
        for target in BW_TARGETS:
            row = rows.get(target, {})
            for order in BW_ORDERS:
                label = f"{name}/target={target}/W_order{order}_hz"
                w = row.get(f"W_order{order}_hz")
                if w is None or not (math.isfinite(w) and BW_LOW <= w <= BW_HIGH):
                    results.append(Result(label, False, f"W={w!r} outside [{BW_LOW}, {BW_HIGH}]"))
                    continue
                # the search stops once hi - lo <= 1e-3 hi, with R(lo) < target
                r_at, r_below = reliability(order, w), reliability(order, w * (1.0 - 1.001e-3))
                results.append(
                    Result(
                        label,
                        r_at >= target > r_below,
                        f"W={w!r} R(W)={r_at:.6g} R(W(1-1.001e-3))={r_below:.6g} target={target}",
                    )
                )
        return results

    return Op(name, cli_run(argv), check, len(BW_TARGETS) * len(BW_ORDERS))


def _first_order_op(name: str, seed: int) -> Op:
    n0, n_outer = FIRST_ORDER_TRIALS
    params = canonical_params(NESTED_ZETA, MODES[0])

    def run():
        return can.first_order_md_mc_grid(params, Q, FIRST_ORDER_P1, FIRST_ORDER_TRIALS, seed)

    def check(grid) -> list[Result]:
        results = []
        for i, p1 in enumerate(grid.p1_grid):
            expect = oracles.r1_enumerated(p1, Q, ALPHA, NESTED_ZETA, MODES[0])
            results.append(
                judge(f"{name}/p1={p1}", float(grid.values[i, 0]),
                      stderr=float(grid.stderr[i, 0]), expect=expect,
                      tol=oracles.mc_tolerance(expect, n_outer, p1, n0))
            )
        return results

    return Op(name, run, check, len(FIRST_ORDER_P1), payload=_grid_payload)


def _thinned_op(name: str, seed: int) -> Op:
    alpha, zeta, n_points, n_real = THINNED

    def run():
        return stochgeom.thinned_ratio_sum_mc(alpha, zeta, n_points, n_real, seed=seed)

    def check(out) -> list[Result]:
        mean, se = out
        target = oracles.interference_ratio_target(alpha, zeta)
        # criterion 2's tolerance: the expectation is a tight approximation
        return [
            judge(name, mean, stderr=se, expect=target, tol=0.03 * target,
                  unit_interval=False, note="3% of (1 + delta zeta)/(1 - delta)")
        ]

    return Op(name, run, check, 1, payload=lambda out: repr(tuple(out)).encode())


def _grid_payload(grid) -> bytes:
    return repr((grid.p1_grid, grid.p2_grid, grid.trials, grid.seed)).encode() + (
        np.ascontiguousarray(grid.values).tobytes() + np.ascontiguousarray(grid.stderr).tobytes()
    )


def build_canonical_grid(seeds: Seeds, workdir: str) -> Workload:
    ops = []
    for zeta in GRID_ZETAS:
        for mode in MODES:
            for p1 in GRID_P1:
                name = f"canonical/zeta={zeta}/{mode}/p1={p1}"
                argv = [
                    "canonical", "--seed", str(seeds.next()), "--method", "both",
                    "--axis", "p2", "--grid", _fmt(GRID_P2), "--p1", repr(p1),
                    "--q", repr(Q), "--alpha", repr(ALPHA), "--zeta", repr(zeta),
                    "--mode", mode, "--intensity", repr(INTENSITY),
                    "--trials", _fmt_int(GRID_TRIALS),
                    "--out", os.path.join(workdir, f"out-canonical-{len(ops)}.csv"),
                ]
                ops.append(_canonical_sweep(name, argv, zeta, mode, p1))
    argv = [
        "bandwidth", "--seed", str(seeds.next()), "--targets", _fmt(BW_TARGETS),
        "--orders", _fmt_int(BW_ORDERS), "--p1", repr(BW_P1), "--p2", repr(BW_P2),
        "--alpha", repr(ALPHA), "--zeta", repr(BW_ZETA), "--l", repr(BW_L_BITS),
        "--tth", repr(BW_TTH), "--w-low", repr(BW_LOW), "--w-high", repr(BW_HIGH),
        "--out", os.path.join(workdir, "out-bandwidth.csv"),
    ]
    ops.append(_bandwidth_op("bandwidth", argv))
    ops.append(_first_order_op("first_order_md_mc_grid", seeds.next()))
    ops.append(_thinned_op("thinned_ratio_sum_mc", seeds.next()))
    return Workload("canonical-grid", ops, rerun="canonical/zeta=0.5/multi_interferer/p1=0.8")


# ---------------------------------------------------------------------------
# nested-mc
# ---------------------------------------------------------------------------


def _estimate_payload(est) -> bytes:
    return repr((est.value, est.stderr, est.trials, est.seed)).encode()


def _canonical_mc_op(
    mode: str, inner: str, p1: float, p2: float, trials, seed: int, known: str = ""
) -> Op:
    name = f"canonical_mc/{mode}/{inner}/p1={p1},p2={p2}"
    params = canonical_params(NESTED_ZETA, mode)
    query = mdcore.MdQuery(q=Q, p=(p1, p2), trials=trials)

    def run():
        return can.run_canonical_mc(params, query, seed, inner=inner)

    def check(est) -> list[Result]:
        expect = oracles.r2_finite_n1(p1, p2, Q, ALPHA, NESTED_ZETA, mode, trials[1])
        return [
            judge(name, est.value, stderr=est.stderr, expect=expect,
                  tol=oracles.mc_tolerance(expect, trials[2], p1, trials[0]),
                  one_sided=mode == "multi_interferer")
        ]

    return Op(name, run, check, 1, payload=_estimate_payload, known=known)


def _zeroth_op(name: str, seed: int) -> Op:
    params = canonical_params(NESTED_ZETA, MODES[0])

    def run():
        model = can.canonical_layered_model(params, Q)
        return mdcore.zeroth_order_reliability(model, Q, ZEROTH_TRIALS, seed)

    def check(est) -> list[Result]:
        expect = oracles.r0_integrated(Q, ALPHA, NESTED_ZETA, MODES[0])
        return [
            judge(name, est.value, stderr=est.stderr, expect=expect,
                  tol=oracles.mc_tolerance(expect, ZEROTH_TRIALS))
        ]

    return Op(name, run, check, 1, payload=_estimate_payload)


def _thz_mc_op(name: str, table_path: str, seed: int) -> Op:
    params = fig6_params()
    table = thz.load_absorption_table(table_path)
    p1, p2 = THZ_MC_POINT
    query = mdcore.MdQuery(q=params.qos(), p=(p1, p2), trials=NESTED_TRIALS)

    def run():
        return thz.run_thz_mc(params, table, query, seed)

    def check(est) -> list[Result]:
        coeffs = specfun.calibrate_marcum_coeffs(math.sqrt(2.0 * params.rician_k), *FIG6_ANCHORS)
        expect = thz.r2_scenario2(p1, p2, params, table, approx=coeffs)
        n0, _, n2 = NESTED_TRIALS
        return [
            judge(name, est.value, stderr=est.stderr, expect=expect,
                  tol=FIG6_MODEL_GAP + oracles.mc_tolerance(expect, n2, p1, n0),
                  note="against the scenario-2 engine, criterion 8")
        ]

    return Op(name, run, check, 1, payload=_estimate_payload)


def build_nested_mc(seeds: Seeds, workdir: str) -> Workload:
    tables = write_tables(seeds, workdir, ("fig6",))
    ops = []
    for mode in MODES:
        for inner in ("sampled", "exact_binomial"):
            points, trials, known = NESTED_POINTS, NESTED_TRIALS, ""
            if mode == "multi_interferer" and inner == "sampled":
                points, trials, known = NESTED_POINTS[:1], K1_TRIALS, "K1"
            for p1, p2 in points:
                ops.append(_canonical_mc_op(mode, inner, p1, p2, trials, seeds.next(), known))
    ops.append(_zeroth_op("zeroth_order_reliability/single_interferer", seeds.next()))
    ops.append(_thz_mc_op("run_thz_mc/fig6", tables["fig6"], seeds.next()))
    return Workload(
        "nested-mc", ops, rerun="canonical_mc/single_interferer/sampled/p1=0.8,p2=0.3"
    )


# ---------------------------------------------------------------------------
# thz-sweep
# ---------------------------------------------------------------------------


def _thz_argv(seed: int, scenario: int, axis: str, grid, table: str, out: str, *extra) -> list[str]:
    return [
        "thz", "--seed", str(seed), "--scenario", str(scenario), "--axis", axis,
        "--grid", _fmt(grid), "--absorption-table", table, "--out", out, *extra,
    ]


def _range_sweep(name: str, argv: list[str], grid) -> Op:
    def check(text: str) -> list[Result]:
        return [
            judge(f"{name}/axis={g}", row.get("R")) if row else missing(f"{name}/axis={g}")
            for g, row in zip(grid, rows_by_axis(text, grid))
        ]

    return Op(name, cli_run(argv), check, len(grid))


def _s2_monotone_op(name: str, argv: list[str], table_path: str) -> Op:
    def check(text: str) -> list[Result]:
        params = thz.ThzParams()
        table = thz.load_absorption_table(table_path)
        coeffs = specfun.calibrate_marcum_coeffs(math.sqrt(2.0 * params.rician_k), *DEFAULT_ANCHORS)
        results = []
        for p2, row in zip(S2_MONO_GRID, rows_by_axis(text, S2_MONO_GRID)):
            label = f"{name}/p2={p2}"
            if row is None:
                results.append(missing(label))
                continue
            expect = thz.r2_scenario1(THZ_P1, p2, params, table, approx=coeffs)
            results.append(judge(label, row.get("R"), expect=expect, tol=S1_S2_TOL,
                                 note="scenario-1 Lambert-W form"))
        return results

    return Op(name, cli_run(argv), check, len(S2_MONO_GRID))


def _fig6_op(name: str, argv: list[str]) -> Op:
    n0, _, n2 = FIG6_TRIALS

    def check(text: str) -> list[Result]:
        results = []
        for p2, row in zip(FIG6_GRID, rows_by_axis(text, FIG6_GRID)):
            label = f"{name}/p2={p2}"
            if row is None:
                results += [missing(f"{label}/R"), missing(f"{label}/R_mc")]
                continue
            numeric = row.get("R")
            results.append(judge(f"{label}/R", numeric))
            if numeric is None or not math.isfinite(numeric):
                results.append(Result(f"{label}/R_mc", False, "no numeric value to compare"))
                continue
            results.append(
                judge(f"{label}/R_mc", row.get("R_mc"), stderr=row.get("stderr"),
                      expect=numeric,
                      tol=FIG6_MODEL_GAP + oracles.mc_tolerance(numeric, n2, FIG6_P1, n0),
                      note="against the scenario-2 engine, criterion 8")
            )
        return results

    return Op(name, cli_run(argv), check, 2 * len(FIG6_GRID))


def check_calibration(coeffs, a: float, anchors) -> Result:
    mu, nu = oracles.calibration_reference(a, *anchors)
    err_mu = abs(coeffs.mu - mu) / abs(mu)
    err_nu = abs(coeffs.nu - nu) / abs(nu)
    return Result(
        f"marcum_calibration/a={a}/anchors={anchors[0]},{anchors[1]}",
        max(err_mu, err_nu) <= CALIBRATION_RTOL,
        f"mu={coeffs.mu!r} ref={mu!r} rel={err_mu:.2e}; nu={coeffs.nu!r} ref={nu!r} "
        f"rel={err_nu:.2e}; tol={CALIBRATION_RTOL:.0e} (scipy ncx2 inversion)",
        known="K2",  # the Marcum inverse stops on |Q1 - p|, not on b
    )


def build_thz_sweep(seeds: Seeds, workdir: str) -> Workload:
    tables = write_tables(seeds, workdir, ("mono", "valley", "sweep", "fig6"))
    a = math.sqrt(2.0 * thz.ThzParams().rician_k)
    coeffs = specfun.calibrate_marcum_coeffs(a, *DEFAULT_ANCHORS)

    def out(name: str) -> str:
        return os.path.join(workdir, f"out-{name}.csv")

    ops = [
        _range_sweep(
            "thz/s1-mono-p2",
            _thz_argv(seeds.next(), 1, "p2", S1_GRID, tables["mono"], out("s1")),
            S1_GRID,
        ),
        _s2_monotone_op(
            "thz/s2-mono-p2",
            _thz_argv(seeds.next(), 2, "p2", S2_MONO_GRID, tables["mono"], out("s2-mono")),
            tables["mono"],
        ),
        _range_sweep(
            "thz/s2-valley-p2",
            _thz_argv(seeds.next(), 2, "p2", S2_VALLEY_GRID, tables["valley"], out("s2-valley")),
            S2_VALLEY_GRID,
        ),
        _range_sweep(
            "thz/s2-bw",
            _thz_argv(seeds.next(), 2, "bw", BW_SWEEP, tables["sweep"], out("s2-bw"),
                      "--f-low", repr(BW_SWEEP_F_LOW)),
            BW_SWEEP,
        ),
        _fig6_op(
            "thz/fig6-both",
            _thz_argv(
                seeds.next(), 2, "p2", FIG6_GRID, tables["fig6"], out("fig6"),
                "--method", "both", "--p1", repr(FIG6_P1), "--m", "1", "--q", "1",
                "--c1", repr(0.01 / FIG6_FBAR**2), "--anchors", _fmt(FIG6_ANCHORS),
                "--trials", _fmt_int(FIG6_TRIALS),
            ),
        ),
    ]
    workload = Workload("thz-sweep", ops, rerun="thz/fig6-both")
    workload.setup_checks.append(lambda: check_calibration(coeffs, a, DEFAULT_ANCHORS))
    return workload


SETUPS = {
    "canonical-grid": build_canonical_grid,
    "nested-mc": build_nested_mc,
    "thz-sweep": build_thz_sweep,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Set a workload up: parameters, argv lists, absorption-table CSVs and,
    for thz-sweep, the first Marcum calibration."""
    os.makedirs(workdir, exist_ok=True)
    return SETUPS[name](Seeds(seed), workdir)
