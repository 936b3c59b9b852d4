"""Spans around calls into metarel's public functions.

The benchmark traces the package from outside.  For the traced run it
replaces each traced function, in every ``metarel`` namespace that binds
it, with a wrapper that records a span, and it puts the originals back
when the run ends.  Modules that import a function by name (``thz`` binds
the special functions, ``canonical`` the samplers, ``cli`` the Marcum
calibration) therefore see the wrapper too.

Spans stay in memory and are written out once, after the traced run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time
from typing import Callable, Iterator, Optional

PACKAGE = "metarel"

# Traced public functions, by layer (the module that defines them).
TRACED: dict[str, tuple[str, ...]] = {
    "mdcore": ("nested_md_estimate", "zeroth_order_reliability"),
    "stochgeom": ("sample_ordered_distances", "sample_marks", "thinned_ratio_sum_mc"),
    "specfun": (
        "marcum_q1",
        "marcum_q1_inverse_b",
        "calibrate_marcum_coeffs",
        "lambert_w0",
    ),
    "canonical": (
        "run_canonical_mc_grid",
        "first_order_md_mc_grid",
        "run_canonical_mc",
        "required_bandwidth",
        "zeroth_order_reliability_closed",
        "r2_single_interferer",
        "r2_multi_interferer",
    ),
    "thz": (
        "run_thz_mc_grid",
        "run_thz_mc",
        "r2_scenario1",
        "r2_scenario2",
        "p2_scenario2",
        "roots_scenario2",
        "optimal_bandwidth_sweep",
    ),
    "cli": ("main",),
}

# One span name covers every callable field (samplers, QoS, batch hooks) of
# the LayeredModel objects that these factories return.
MODEL_SPAN = "mdcore.model"
MODEL_FACTORIES: tuple[tuple[str, str], ...] = (
    ("canonical", "canonical_layered_model"),
    ("thz", "thz_layered_model"),
)

STAT_FIELDS = ("calls", "busy_s", "self_s", "errors")


def span_names() -> list[str]:
    names = []
    for mod, fns in TRACED.items():
        names += [f"{mod}.{fn}" for fn in fns]
        if mod == "mdcore":
            names.append(MODEL_SPAN)
    return names


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error")

    def __init__(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = -1,
        op: Optional[str] = None,
        error: Optional[str] = None,
    ):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at top level
        self.op = op
        self.error = error  # name of the typed error the call raised


class Tracer:
    """Records one span per wrapped call; ``op`` tags the operation id."""

    def __init__(self, error_types: tuple[type, ...] = ()):
        self.spans: list[Span] = []
        self.op: Optional[str] = None
        self._stack: list[int] = []
        self._error_types = error_types
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        t0 = self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock() - t0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except self._error_types as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock() - t0
                stack.pop()

        return traced

    def wrap_model(self, model):
        """Copy of a LayeredModel whose callable fields record spans."""
        changes = {}
        for f in dataclasses.fields(model):
            value = getattr(model, f.name)
            if callable(value):
                changes[f.name] = self.wrap(MODEL_SPAN, value)
            elif isinstance(value, tuple) and value and all(map(callable, value)):
                changes[f.name] = tuple(self.wrap(MODEL_SPAN, v) for v in value)
        return dataclasses.replace(model, **changes)

    def wrap_factory(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap_model(fn(*args, **kwargs))

        return factory


def _package_modules(package: str) -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, package: str = PACKAGE) -> Iterator[None]:
    """Install the tracer's wrappers in every namespace that binds a traced
    function; restore the original bindings on exit, also after an error."""
    wrappers: dict[int, tuple[object, Callable]] = {}
    for mod_name, fn_names in TRACED.items():
        mod = sys.modules[f"{package}.{mod_name}"]
        for fn_name in fn_names:
            original = getattr(mod, fn_name)
            wrappers[id(original)] = (original, tracer.wrap(f"{mod_name}.{fn_name}", original))
    for mod_name, fn_name in MODEL_FACTORIES:
        original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
        wrappers[id(original)] = (original, tracer.wrap_factory(original))
    saved: list[tuple[object, str, object]] = []
    try:
        for mod in _package_modules(package):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def layer_stats(spans: list[Span], names: list[str]) -> dict[str, dict[str, float]]:
    """calls, busy_s (sum of durations), self_s (busy time minus the time
    covered by child spans) and errors (typed errors raised) per name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0} for name in names}
    for i, span in enumerate(spans):
        entry = stats[span.name]
        duration = span.end - span.start
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - covered[i]
        entry["errors"] += span.error is not None
    return stats


def calls_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    count = 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != ancestor:
            parent = spans[parent].parent
        count += parent >= 0
    return count


def write_spans(path: str, spans: list[Span]) -> None:
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump(
            {
                "fields": ["name", "start_s", "end_s", "parent", "op", "error"],
                "names": names,
                "spans": [
                    [index[s.name], s.start, s.end, s.parent, s.op, s.error] for s in spans
                ],
            },
            fh,
            separators=(",", ":"),
        )
