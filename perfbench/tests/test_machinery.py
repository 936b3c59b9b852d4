"""Tests of the benchmark's own machinery: span arithmetic, wrapper install
and restore, result accounting, and agreement between BENCHMARK.json, the
workload manifest and the live package.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys

import pytest

import metarel
from metarel import canonical as can
from metarel import cli, mdcore, specfun, thz
from metarel.errors import DomainError

from perfbench import oracles, runner, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "metarel" or name.startswith("metarel."))
        for attr, value in vars(mod).items()
    }


def _span(name, start, end, parent=-1, error=None):
    return tracing.Span(name, start, end, parent, "op", error)


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            _span("a", 0.0, 10.0),
            _span("b", 1.0, 4.0, parent=0),
            _span("c", 2.0, 3.0, parent=1),
            _span("b", 5.0, 9.0, parent=0, error="DomainError"),
        ]
        stats = tracing.layer_stats(spans, ["a", "b", "c"])
        assert stats["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0, "errors": 0}
        assert stats["b"] == {"calls": 2, "busy_s": 7.0, "self_s": 6.0, "errors": 1}
        assert stats["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0, "errors": 0}

    def test_untouched_layers_report_zero(self):
        stats = tracing.layer_stats([], ["a"])
        assert stats["a"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}

    def test_calls_under_walks_past_intermediate_spans(self):
        spans = [
            _span("inv", 0.0, 5.0),
            _span("mid", 1.0, 4.0, parent=0),
            _span("q1", 2.0, 3.0, parent=1),
            _span("q1", 6.0, 7.0),
        ]
        assert tracing.calls_under(spans, "q1", "inv") == 1


class TestWrappers:
    def test_every_namespace_that_binds_a_function_is_wrapped(self):
        tracer = tracing.Tracer(runner.ERROR_TYPES)
        with tracing.installed(tracer):
            assert thz.marcum_q1 is specfun.marcum_q1
            assert cli.calibrate_marcum_coeffs is specfun.calibrate_marcum_coeffs
            assert can.nested_md_estimate is mdcore.nested_md_estimate is metarel.nested_md_estimate
            cli.calibrate_marcum_coeffs(2.0, 0.3, 0.7)
        stats = tracing.layer_stats(tracer.spans, tracing.span_names())
        assert stats["specfun.calibrate_marcum_coeffs"]["calls"] == 1
        assert stats["specfun.marcum_q1_inverse_b"]["calls"] == 2
        under = tracing.calls_under(tracer.spans, "specfun.marcum_q1", "specfun.marcum_q1_inverse_b")
        assert under == stats["specfun.marcum_q1"]["calls"] > 0

    def test_restore_after_an_error_inside_the_run(self):
        before = _bindings()
        tracer = tracing.Tracer(runner.ERROR_TYPES)
        with pytest.raises(DomainError):
            with tracing.installed(tracer):
                assert _bindings() != before
                thz.marcum_q1(-1.0, 1.0)
        assert _bindings() == before
        assert [(s.name, s.error) for s in tracer.spans] == [("specfun.marcum_q1", "DomainError")]

    def test_model_callables_are_traced(self):
        tracer = tracing.Tracer(runner.ERROR_TYPES)
        params = workloads.canonical_params(0.5, "single_interferer")
        query = mdcore.MdQuery(q=1.0, p=(0.8, 0.3), trials=(5, 3, 4))
        with tracing.installed(tracer):
            can.run_canonical_mc(params, query, 1, inner="exact_binomial")
        stats = tracing.layer_stats(tracer.spans, tracing.span_names())
        # per outer draw: one distance sample and one p1_batch call
        assert stats[tracing.MODEL_SPAN]["calls"] == 8
        assert stats["mdcore.nested_md_estimate"]["calls"] == 1

    def test_tracing_leaves_outputs_unchanged(self, tmp_path):
        wl = workloads.build("nested-mc", 3, str(tmp_path))
        ops = [op for op in wl.ops if "exact_binomial" in op.name]
        plain = [runner.payload_digest(op, runner.run_op(op)) for op in ops]
        with tracing.installed(tracing.Tracer(runner.ERROR_TYPES)):
            traced = [runner.payload_digest(op, runner.run_op(op)) for op in ops]
        assert plain == traced


class TestResults:
    def test_nonzero_cli_return_fails_every_result(self, tmp_path):
        argv = ["canonical", "--seed", "1", "--axis", "p2", "--grid", "0.5,0.3",
                "--p1", "0.8", "--q", "1", "--out", str(tmp_path / "x.csv")]
        op = workloads.Op("bad-grid", workloads.cli_run(argv), lambda out: [], 3)
        output, error, _ = runner.run_op(op)
        results = workloads.evaluate(op, output, error)
        assert isinstance(error, workloads.CliFailure)
        assert [r.name for r in results] == ["bad-grid#0", "bad-grid#1", "bad-grid#2"]
        assert not any(r.ok for r in results)
        assert "returned 2" in results[0].detail

    def test_judge_gates_range_stderr_and_tolerance(self):
        assert workloads.judge("x", 0.5, stderr=0.1).ok
        assert not workloads.judge("x", 1.5).ok
        assert not workloads.judge("x", float("nan")).ok
        assert not workloads.judge("x", 0.5, stderr=-1e-3).ok
        assert not workloads.judge("x", 0.5, expect=0.6, tol=0.05).ok
        assert workloads.judge("x", 0.7, expect=0.6, tol=0.05, one_sided=True).ok
        assert not workloads.judge("x", 0.5, expect=0.6, tol=0.05, one_sided=True).ok


class TestOracles:
    @pytest.mark.parametrize("zeta,p2,terms,atom", [
        (0.5, 0.5, 1, True), (0.2, 0.8, 1, True), (0.2, 0.5, 4, False), (1.0, 0.3, 1, False),
    ])
    def test_strict_term_count(self, zeta, p2, terms, atom):
        assert oracles.strict_terms(zeta, p2) == terms
        assert oracles.is_atom(zeta, p2) == atom

    def test_finite_n1_law_tends_to_the_closed_form(self):
        exact = oracles.r2_enumerated(0.8, 0.3, 1.0, 3.5, 0.5, "single_interferer")
        large = oracles.r2_finite_n1(0.8, 0.3, 1.0, 3.5, 0.5, "single_interferer", 20_000)
        assert large == pytest.approx(exact, abs=1e-9)

    def test_marcum_reference_inverts_the_marcum_function(self):
        for p in (0.3, 0.99):
            b = oracles.marcum_b_reference(2.0, p)
            assert specfun.marcum_q1(2.0, b) == pytest.approx(p, abs=1e-10)


class TestDeclarations:
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        per_layer = {m["name"] for m in bench["per_layer"]}
        assert set(runner.layer_metrics([], 1.0, 1.0)) == per_layer
        assert {m["name"] for m in bench["end_to_end"]} == set(runner.END_TO_END)
        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    def test_manifest_signatures_match_the_package(self):
        with open(os.path.join(ROOT, "perfbench", "manifest.json")) as fh:
            manifest = json.load(fh)
        for name, entry in manifest["workloads"].items():
            for call, signature in entry["calls"].items():
                module, _, qualname = call.partition(":")
                obj = importlib.import_module(module)
                for part in qualname.split("."):
                    obj = getattr(obj, part)
                assert str(inspect.signature(obj)) == signature, f"{name}: {call}"
