"""Benchmark of metarel: three workloads driven through the package's
public surface, with output checks and an optional traced run.

Each run of ``perfbench/run.py``, in one process with no worker pool:

1. sets the workload up, then repeats its fixed list of operations for
   ``--seconds`` of operation time (``wall_s`` is the mean pass);
2. between passes, times SETUP_PROBES fresh interpreters that import
   metarel and set the workload up (``setup_s`` is their median);
3. checks every result of every pass, reruns one operation to record
   whether its output bytes repeat, and writes a run record under
   ``.perfbench_out/``;
4. with ``--trace 1``, sets up and runs one more pass with every traced
   public function wrapped, and reports per-layer metrics instead of the
   end-to-end ones.

The host's speed drifts by 10-30% within seconds to minutes, and a 30 s
run cannot average that out.  So a fixed gauge (a pure-Python loop plus a
numpy vector operation) is timed on either side of every operation and
probe, and ``wall_s`` and ``setup_s`` report each time scaled to the speed
at which the gauge takes GAUGE_NOMINAL_S: seconds on the reference host.
That cuts the run-to-run spread two- to five-fold.  The raw times and the
gauge times are kept in the run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when a result fails that ROADMAP does not list as a known defect of
the seed commit; known failures still count in ``failed`` and
``fail_ratio`` and are named above that line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import metarel
from metarel import errors

from perfbench import tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_SCRIPT = os.path.join(ROOT, "perfbench", "run.py")
OUT_DIR = ".perfbench_out"  # relative to ROOT; ignored by git
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "share"}
# Median gauge time on the reference host: Intel Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4.
GAUGE_NOMINAL_S = 0.0066
GAUGE_SAMPLES = 3  # gauge runs in each group
_GAUGE_VECTOR = np.linspace(0.0, 1.0, 200_000)
_GAUGE_VECTOR.setflags(write=False)

ERROR_TYPES = tuple(
    obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def work_dir(workload: str, seed: int, role: str) -> str:
    return os.path.join(OUT_DIR, f"{role}-{workload}-{seed}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to a workload ready to run
    (and the interpreter gone again)."""
    cmd = [sys.executable, RUN_SCRIPT, "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - start


def run_op(op: workloads.Op):
    """(output, error, seconds); any exception is the operation's failure."""
    start = time.perf_counter()
    try:
        output, error = op.run(), None
    except Exception as exc:  # recorded as failed results, never fatal
        output, error = None, exc
    return output, error, time.perf_counter() - start


def gauge() -> float:
    """Seconds for fixed work of both kinds metarel does: a pure-Python
    loop and a numpy vector operation."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    np.exp(_GAUGE_VECTOR).sum()
    return time.perf_counter() - start


def gauge_group() -> list[float]:
    return [gauge() for _ in range(GAUGE_SAMPLES)]


def at_reference_speed(seconds: float, gauges: list[float]) -> float:
    """A time scaled by GAUGE_NOMINAL_S over the median of the gauge times
    taken on either side of it."""
    return seconds * GAUGE_NOMINAL_S / statistics.median(gauges)


def timed_pass(ops, tracer=None):
    """Run the operations once, with a gauge group before each and after
    the last.  Returns (outcomes, seconds, seconds at reference speed,
    gauge times)."""
    groups = [gauge_group()]
    outcomes = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        outcomes.append(run_op(op))
        groups.append(gauge_group())
    seconds = sum(oc[2] for oc in outcomes)
    ref_seconds = sum(
        at_reference_speed(oc[2], groups[i] + groups[i + 1]) for i, oc in enumerate(outcomes)
    )
    return outcomes, seconds, ref_seconds, [g for group in groups for g in group]


def payload_digest(op, outcome) -> str:
    output, error, _ = outcome
    if error is not None:
        return workloads.digest(f"{type(error).__name__}: {error}".encode())
    return workloads.digest(op.payload(output))


def openblas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where it is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "metarel": metarel.__version__,
        "openblas_threads": openblas_threads(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans, traced_s: float, untraced_s: float) -> dict:
    names = tracing.span_names()
    stats = tracing.layer_stats(spans, names)
    metrics = {}
    for name in names:
        for stat in tracing.STAT_FIELDS:
            unit = "s" if stat.endswith("_s") else "count"
            metrics[f"{name}.{stat}"] = {"value": stats[name][stat], "unit": unit}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    points = (
        stats["mdcore.nested_md_estimate"]["calls"]
        + stats["mdcore.zeroth_order_reliability"]["calls"]
    )
    metrics["thz.radial.indicator_evals_per_point"] = {
        "value": ratio(stats["thz.p2_scenario2"]["calls"], stats["thz.r2_scenario2"]["calls"]),
        "unit": "ratio",
    }
    metrics["specfun.marcum_inverse.q1_evals_per_call"] = {
        "value": ratio(
            tracing.calls_under(spans, "specfun.marcum_q1", "specfun.marcum_q1_inverse_b"),
            stats["specfun.marcum_q1_inverse_b"]["calls"],
        ),
        "unit": "ratio",
    }
    metrics["mdcore.model.calls_per_point"] = {
        "value": ratio(stats[tracing.MODEL_SPAN]["calls"], points),
        "unit": "ratio",
    }
    metrics["trace.overhead_ratio"] = {"value": ratio(traced_s, untraced_s), "unit": "ratio"}
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


@dataclass
class Timing:
    """Outcomes of the measured passes, and the raw and reference-speed
    seconds of every pass and set-up probe."""

    passes: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    ref_pass_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    ref_setup_s: list = field(default_factory=list)
    gauges: list = field(default_factory=list)

    def add_pass(self, ops) -> None:
        outcomes, seconds, ref_seconds, gauges = timed_pass(ops)
        self.passes.append(outcomes)
        self.pass_s.append(seconds)
        self.ref_pass_s.append(ref_seconds)
        self.gauges += gauges

    def add_probe(self, workload: str, seed: int) -> None:
        before = gauge_group()
        seconds = probe_setup(workload, seed)
        gauges = before + gauge_group()
        self.setup_s.append(seconds)
        self.ref_setup_s.append(at_reference_speed(seconds, gauges))
        self.gauges += gauges


def measure(wl: workloads.Workload, seed: int, seconds: float) -> Timing:
    """Repeat the operation list while the next pass is expected to end
    within ``seconds`` of operation time, with the set-up probes run between
    passes so that they sample the whole run."""
    timing = Timing()
    while not timing.passes or sum(timing.pass_s) + timing.pass_s[-1] <= seconds:
        timing.add_pass(wl.ops)
        if len(timing.setup_s) < SETUP_PROBES:
            timing.add_probe(wl.name, seed)
    while len(timing.setup_s) < SETUP_PROBES:
        timing.add_probe(wl.name, seed)
    return timing


def judge(wl: workloads.Workload, passes, digests) -> list:
    """Results of every pass.  A pass whose output repeats an earlier one
    reuses that verdict.  Set-up results count once per pass, so that
    fail_ratio does not depend on how many passes fit in --seconds."""
    setup_results = [check() for check in wl.setup_checks]
    verdicts: dict[tuple[str, str], list] = {}
    results = []
    for outcomes, pass_digests in zip(passes, digests):
        results += setup_results
        for op, (output, error, _) in zip(wl.ops, outcomes):
            key = (op.name, pass_digests[op.name])
            if key not in verdicts:
                verdicts[key] = workloads.evaluate(op, output, error)
            results += verdicts[key]
    return results


def traced_run(workload: str, seed: int, workdir: str):
    """Set up and run one pass with every traced function wrapped.  Returns
    (tracer, pass seconds at reference speed, digests of its outputs)."""
    tracer = tracing.Tracer(ERROR_TYPES)
    with tracing.installed(tracer):
        tracer.op = "setup"
        wl = workloads.build(workload, seed, workdir)
        outcomes, _, ref_seconds, _ = timed_pass(wl.ops, tracer)
    return tracer, ref_seconds, {op.name: payload_digest(op, oc) for op, oc in zip(wl.ops, outcomes)}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)  # relative paths keep the CLI's spec hashes checkout-independent
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_only:
        workdir = work_dir(args.workload, args.seed, "probe")
        try:
            workloads.build(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = work_dir(args.workload, args.seed, "work")
    traced = None
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        timing = measure(wl, args.seed, args.seconds)
        passes = timing.passes
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests = [
            {op.name: payload_digest(op, oc) for op, oc in zip(wl.ops, outcomes)}
            for outcomes in passes
        ]
        rerun_op = next(op for op in wl.ops if op.name == wl.rerun)
        rerun_digest = payload_digest(rerun_op, run_op(rerun_op))
        results = judge(wl, passes, digests)
        if args.trace:
            traced = traced_run(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if not r.ok]
    failures: dict[tuple, int] = {}
    for r in failed:
        key = (r.name, r.known, r.detail)
        failures[key] = failures.get(key, 0) + 1
    wall_s = statistics.fmean(timing.ref_pass_s)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    determinism = {
        "digests": digests[0],
        "passes_identical": all(d == digests[0] for d in digests[1:]),
        "rerun": {
            "op": wl.rerun,
            "digest": rerun_digest,
            "identical": rerun_digest == digests[0][wl.rerun],
        },
    }
    if traced is None:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(timing.ref_setup_s),
            "peak_rss_mb": peak_rss_mb,
            "fail_ratio": len(failed) / len(results),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        tracer, traced_s, traced_digests = traced
        metrics = layer_metrics(tracer.spans, traced_s, wall_s)
        tracing.write_spans(stem + "-spans.json", tracer.spans)
        determinism["traced_pass_identical"] = traced_digests == digests[0]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "raw_wall_s": statistics.fmean(timing.pass_s),
        "raw_setup_s": statistics.median(timing.setup_s),
        "measured": {
            "pass_s": timing.pass_s,
            "ref_pass_s": timing.ref_pass_s,
            "setup_s": timing.setup_s,
            "ref_setup_s": timing.ref_setup_s,
        },
        "gauge": {
            "nominal_s": GAUGE_NOMINAL_S,
            "median_s": statistics.median(timing.gauges),
            "samples": len(timing.gauges),
        },
        "op_median_s": {
            op.name: statistics.median(outcomes[i][2] for outcomes in passes)
            for i, op in enumerate(wl.ops)
        },
        "determinism": determinism,
        "results_first_pass": [vars(r) for r in results[: len(results) // len(passes)]],
        "failures": [
            {"name": n, "known": k, "detail": d, "count": c} for (n, k, d), c in failures.items()
        ],
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for (name, known, detail), count in failures.items():
        tag = f" [known defect {known}]" if known else ""
        print(f"FAILED {name}{tag} x{count}: {detail}")
    print(f"run record: {os.path.join(ROOT, stem)}.json", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": all(r.known for r in failed),
                "attempted": len(results),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0
