import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from metarel import acceptance, cli, thz

TABLE_VALLEY = thz.synthetic_valley_table(335e9, 380e9, 0.30, 0.04, 0.42, f_min=352e9)
# a fig-6 style operating point, away from the saturated p1 = 0.99 default
FIG6_FLAGS = ["--p1", "0.5", "--m", "1", "--q", "1", "--c1", repr(0.01 / 375e9**2),
              "--anchors", "0.3,0.7"]


@pytest.fixture
def valley_csv(tmp_path):
    path = tmp_path / "valley.csv"
    TABLE_VALLEY.save_csv(path)
    return str(path)


def thz_argv(*extra):
    return ["thz", "--seed", "7", *extra]


def canonical_argv(*extra):
    return ["canonical", "--seed", "1", "--axis", "p2", "--p1", "0.8", "--q", "1", *extra]


def bandwidth_argv(*extra):
    return ["bandwidth", "--seed", "1", "--p1", "0.9", "--p2", "0.6", *extra]


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def assert_one_line_error(err, prefix):
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        thz_argv("--axis", "p1", "--grid", "0.9", "--p2", "1.5"),
        thz_argv("--axis", "p2", "--grid", "0.5", "--anchors", "0.99"),
    ],
    ids=["p2-out-of-range", "one-anchor"],
)
def test_domain_and_usage_errors_exit_2(argv):
    assert cli.main(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        canonical_argv("--grid", "a,b"),
        canonical_argv("--grid", "0.1:x:3"),
        canonical_argv("--grid", "0.1:0.9:2.5"),
        canonical_argv("--grid", "0.5", "--method", "monte_carlo", "--trials", "10,x,10"),
        bandwidth_argv("--targets", "0.5,y"),
        bandwidth_argv("--targets", "0.5", "--orders", "x"),
        bandwidth_argv("--targets", "1.5"),
        bandwidth_argv("--targets", "0.5", "--orders", "3"),
        thz_argv("--axis", "p2", "--grid", "0.5", "--anchors", "a,b"),
        thz_argv("--axis", "p2", "--grid", "0.5", "--method", "both", "--trials", "10,x,10"),
        thz_argv("--axis", "bw", "--grid", "5e8,1e9", "--method", "monte_carlo"),
        thz_argv("--axis", "bw", "--grid", "5e8,1e9", "--method", "both"),
    ],
    ids=["grid-list", "grid-range", "grid-count", "canonical-trials", "targets", "orders",
         "target-out-of-range", "order-out-of-range",
         "anchors", "thz-trials", "bw-monte-carlo", "bw-both"],
)
def test_malformed_flags_exit_2(argv, capsys):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert_one_line_error(err, "usage error: ")


@pytest.mark.parametrize(
    "argv",
    [
        bandwidth_argv("--targets", "0.5,1.5"),
        bandwidth_argv("--targets", "0.5", "--orders", "2,5"),
    ],
    ids=["late-target", "late-order"],
)
def test_bandwidth_checks_every_target_and_order_before_searching(argv, capsys):
    # the search for target 0.5 fails its bracket (exit 3) on these bounds;
    # the bad value after it is reported before any search runs
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert_one_line_error(err, "usage error: ")


def test_underflowing_qos_exits_2(tmp_path, capsys):
    path = tmp_path / "mono.csv"
    thz.synthetic_monotone_table(335e9, 380e9, 0.8, 3.0).save_csv(path)
    argv = thz_argv("--axis", "p2", "--grid", "0.5", "--q", "1e-300",
                    "--absorption-table", str(path))
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert_one_line_error(err, "usage error: ")


def test_overflowing_qos_exits_2(capsys):
    # q = 2^(1000 / (1e3 * 1e-5)) - 1 = 2^1e5 - 1 overflows a double
    argv = ["canonical", "--seed", "1", "--axis", "p2", "--grid", "0.5", "--p1", "0.8",
            "--method", "closed_form", "--l", "1000", "--bw", "1e3", "--tth", "1e-5"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert_one_line_error(err, "usage error: ")


def test_bandwidth_search_reads_zero_reliability_where_qos_overflows(capsys):
    argv = ["bandwidth", "--targets", "0.5", "--l", "1000", "--tth", "1e-5", "--p1", "0.9",
            "--p2", "0.5", "--zeta", "0.5", "--seed", "1", "--w-low", "1e3", "--w-high", "1e10"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    row = [float(x) for x in out.splitlines()[-1].split(",")]
    assert row[0] == 0.5 and all(1e3 < w < 1e10 for w in row[1:])


def test_q_with_a_full_triple_exits_2(capsys):
    # and so do neither route and a partial triple: exactly one must be given
    route = ["canonical", "--seed", "1", "--axis", "p2", "--p1", "0.8", "--grid", "0.5"]
    for argv in (
        canonical_argv("--grid", "0.5", "--l", "256", "--bw", "1e6", "--tth", "1e-3"),
        route,
        route + ["--l", "256"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert_one_line_error(err, "usage error: ")


def test_scenario_error_exits_3(valley_csv):
    argv = thz_argv("--scenario", "1", "--axis", "p2", "--grid", "0.5",
                    "--absorption-table", valley_csv)
    assert cli.main(argv) == 3


def test_malformed_table_exits_4(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frequency_hz,k_per_m\n340e9,zero\n")
    argv = thz_argv("--scenario", "2", "--axis", "p2", "--grid", "0.5",
                    "--absorption-table", str(path))
    assert cli.main(argv) == 4


@pytest.mark.parametrize(
    "name, text",
    [
        ("bad.json", '{"columns": ["axis"], "data": '),
        ("bad.csv", "axis,R_mc\n0.5,abc\n"),
        ("missing.csv", None),
    ],
    ids=["json", "csv-cell", "missing"],
)
def test_unreadable_run_record_exits_4(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    code, _, err = run_cli(capsys, ["reduce-order", "--input", str(path)])
    assert code == 4
    assert_one_line_error(err, "ingest error: ")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reduce_order_prints_a_plain_float(tmp_path, capsys, fmt):
    path = tmp_path / f"curve.{fmt}"
    argv = canonical_argv("--grid", "0.3,0.5,0.8", "--zeta", "0.5", "--format", fmt,
                          "--out", str(path))
    assert cli.main(argv) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, ["reduce-order", "--input", str(path),
                                    "--value-column", "R_closed_single"])
    assert code == 0
    assert out == "0.5519730293839709\n"


def test_reduce_order_has_no_out_flag(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text("axis,R_mc\n0.3,0.5\n0.5,0.4\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce-order", "--input", str(curve), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "name, text",
    [
        ("empty.csv", "axis,R_mc\n0.3,\n0.5,0.4\n"),
        ("null.json", '{"spec_hash": "", "seed": 1, "version": "0.1.0", "columns": ["axis", '
                      '"R_mc"], "data": {"axis": [0.3, 0.5], "R_mc": [null, 0.4]}}'),
        ("text.json", '{"spec_hash": "", "seed": 1, "version": "0.1.0", "columns": ["axis", '
                      '"R_mc"], "data": {"axis": [0.3, 0.5], "R_mc": ["abc", 0.4]}}'),
        ("nan.csv", "axis,R_mc\n0.3,nan\n0.5,0.4\n"),
        ("inf.csv", "axis,R_mc\ninf,0.5\n0.5,0.4\n"),
        ("nan.json", '{"spec_hash": "", "seed": 1, "version": "0.1.0", "columns": ["axis", '
                     '"R_mc"], "data": {"axis": [0.3, 0.5], "R_mc": [NaN, 0.4]}}'),
    ],
    ids=["csv-empty", "json-null", "json-text", "csv-nan", "csv-inf", "json-NaN"],
)
def test_non_numeric_curve_cell_exits_4(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run_cli(capsys, ["reduce-order", "--input", str(path)])
    assert code == 4
    assert_one_line_error(err, "ingest error: ")


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("flag", ["--absorption-table", "--config"])
def test_unreadable_input_file_exits_4(tmp_path, capsys, flag, content):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_bytes(content)
    argv = thz_argv("--axis", "p2", "--grid", "0.5", flag, str(path))
    code, _, err = run_cli(capsys, argv)
    assert code == 4
    assert_one_line_error(err, "ingest error: ")


CONFIG_ARGV = canonical_argv("--grid", "0.3,0.5,0.8")


@pytest.mark.parametrize("form", ["separate", "joined"])
def test_config_file_matches_explicit_flags(tmp_path, capsys, form):
    path = tmp_path / "run.cfg"
    path.write_text("# canonical model\nalpha=3.0\n")
    config = ["--config", str(path)] if form == "separate" else [f"--config={path}"]
    code, from_file, _ = run_cli(capsys, CONFIG_ARGV + config)
    assert code == 0
    assert (0, from_file, "") == run_cli(capsys, CONFIG_ARGV + ["--alpha", "3.0"])
    assert from_file != run_cli(capsys, CONFIG_ARGV)[1]


def test_explicit_flag_overrides_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=3.0\n")
    code, out, _ = run_cli(capsys, CONFIG_ARGV + ["--config", str(path), "--alpha", "4.0"])
    assert code == 0
    assert out == run_cli(capsys, CONFIG_ARGV + ["--alpha", "4.0"])[1]


# MC at p1 >= EXTREME_P1 is omitted unless --force is set
FORCE_ARGV = canonical_argv("--grid", "0.5", "--p1", "0.999", "--method", "both",
                            "--trials", "20,5,20")


def _rows(out: str) -> list[str]:
    return [line for line in out.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize(
    "argv",
    [
        canonical_argv("--grid", "0.3,0.5", "--p1", "0.999"),
        thz_argv("--scenario", "1", "--axis", "p2", "--grid", "0.3,0.7", "--p1", "0.999"),
        thz_argv("--scenario", "1", "--axis", "p1", "--grid", "0.9,0.999"),
    ],
    ids=["canonical", "thz", "thz-p1-axis"],
)
def test_both_at_extreme_p1_emits_the_closed_forms(argv, capsys):
    code, closed, _ = run_cli(capsys, argv)
    assert code == 0
    code, both, err = run_cli(capsys, argv + ["--method", "both", "--trials", "20,5,20"])
    assert code == 0
    assert f"notice: {cli.MC_NOTICE}\n" in err
    assert f"# notice={cli.MC_NOTICE}\n" in both
    assert _rows(both) == _rows(closed)
    code, out, err = run_cli(capsys, argv + ["--method", "monte_carlo"])
    assert code == 2 and out == ""
    assert_one_line_error(err, "usage error: ")


def test_config_file_sets_a_flag_without_argument(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("force=true\n")
    code, from_file, _ = run_cli(capsys, FORCE_ARGV + ["--config", str(path)])
    assert code == 0
    assert (0, from_file, "") == run_cli(capsys, FORCE_ARGV + ["--force"])
    path.write_text("force=false\n")
    assert run_cli(capsys, FORCE_ARGV + ["--config", str(path)])[1] != from_file


@pytest.mark.parametrize(
    "text, code, prefix",
    [
        ("alpha 3.0\n", 2, "usage error: "),
        ("bogus=1\n", 2, "usage error: "),
        ("force=yes\n", 2, "usage error: "),
        (None, 4, "ingest error: "),
    ],
    ids=["no-equals", "unknown-key", "bad-boolean", "missing"],
)
def test_bad_config_file_exits(tmp_path, capsys, text, code, prefix):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    got, out, err = run_cli(capsys, CONFIG_ARGV + ["--config", str(path)])
    assert got == code and out == ""
    assert_one_line_error(err, prefix)


# the built-in valley table at a fig-6 operating point, closed form and MC
THZ_S2_BOTH_ARGV = thz_argv("--scenario", "2", "--axis", "p2", "--grid", "0.3,0.7",
                            "--method", "both", "--trials", "200,20,200", *FIG6_FLAGS)


def test_thz_mc_runs_on_the_exact_hook(monkeypatch, capsys):
    # the exact hook draws no fading power; the sampled fading loop would
    def no_fading(*args, **kwargs):
        raise AssertionError("the THz CLI sampled the fading layer")

    monkeypatch.setattr(thz, "sample_rician_power", no_fading)
    code, out, _ = run_cli(capsys, THZ_S2_BOTH_ARGV)
    assert code == 0
    assert out.splitlines()[-3] == "axis,R,R_mc,stderr"


# spec_hash and the sha256 of stdout for one sweep per command: any change
# to the emitted bytes, including the hash payload, shows here
@pytest.mark.parametrize(
    "argv, spec_hash, digest",
    [
        (
            canonical_argv("--method", "both", "--grid", "0.3,0.5,0.8", "--zeta", "0.5",
                           "--trials", "200,20,200"),
            "0089c2186c7928c0",
            "4f2d72b19df750355721661e2d62fc61b46106f180d5ef5ef2d2e8e7c3851aea",
        ),
        (
            canonical_argv("--method", "both", "--mode", "multi_interferer", "--zeta", "0.5",
                           "--grid", "0.3,0.5,0.8", "--trials", "200,20,200"),
            "bcd8ed80a800843c",
            "9e8840f6a108350904f7ff9ef07befa16a3f87f39987fae926c3cc8a873956e2",
        ),
        (
            bandwidth_argv("--targets", "0.3,0.6,0.9", "--zeta", "0.5", "--w-low", "3e4"),
            "27a72ca7f9484b26",
            "405c3c7a8d4306e76cda0bccd102daa5ef5d695f844c46f9acb636c5dfcb863f",
        ),
        (
            thz_argv("--scenario", "1", "--axis", "p2", "--grid", "0.3,0.5,0.7"),
            "7b549b0b2f666b45",
            "577ef189b655d3c1621640ba957637f5ed34b3b3a266a6985f95217314287ce9",
        ),
        (
            THZ_S2_BOTH_ARGV,
            "d6773e549346e56a",
            "327f7023423cd699c149b537ba0f5b96cc688420c989ca77b171e43256a13794",
        ),
    ],
    ids=["canonical-both", "canonical-multi-both", "bandwidth", "thz-scenario1",
         "thz-scenario2-both"],
)
def test_sweep_output_is_pinned(argv, spec_hash, digest, capsys):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert f"# spec_hash={spec_hash}\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _spec_hash_of(capsys, argv) -> str:
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    return cli._parse_run_record(out).spec_hash


SPEC_ARGV = canonical_argv("--grid", "0.3,0.5")
BANDWIDTH_ARGV = bandwidth_argv("--targets", "0.5", "--zeta", "0.5", "--w-low", "3e4")


@pytest.mark.parametrize(
    "argv, changed",
    [
        (SPEC_ARGV, SPEC_ARGV + ["--n-points", "50"]),
        (BANDWIDTH_ARGV, BANDWIDTH_ARGV + ["--orders", "2"]),
        (FORCE_ARGV, FORCE_ARGV + ["--force"]),
    ],
    ids=["n-points", "orders", "force"],
)
def test_spec_hash_tells_runs_apart(argv, changed, capsys):
    assert _spec_hash_of(capsys, argv) != _spec_hash_of(capsys, changed)


@pytest.mark.parametrize(
    "argv",
    [
        SPEC_ARGV + ["--seed", "2"],
        canonical_argv("--grid", "0.30,0.50"),
        canonical_argv("--grid", "0.3:0.5:2"),
    ],
    ids=["seed", "grid-digits", "grid-range"],
)
def test_spec_hash_ignores_seed_and_grid_spelling(argv, capsys):
    assert _spec_hash_of(capsys, argv) == _spec_hash_of(capsys, SPEC_ARGV)


def test_spec_hash_ignores_out_and_format(tmp_path, capsys):
    path = tmp_path / "run.json"
    assert cli.main(SPEC_ARGV + ["--out", str(path), "--format", "json"]) == 0
    assert cli.read_run_record(str(path)).spec_hash == _spec_hash_of(capsys, SPEC_ARGV)


def _spec_hash_line(capsys, table) -> str:
    code, out, _ = run_cli(capsys, thz_argv("--scenario", "2", "--axis", "p2", "--grid", "0.5",
                                            "--absorption-table", str(table), *FIG6_FLAGS))
    assert code == 0
    return next(line for line in out.splitlines() if line.startswith("# spec_hash="))


def test_spec_hash_follows_table_contents(tmp_path, capsys):
    copies = [tmp_path / "a" / "valley.csv", tmp_path / "b" / "valley.csv"]
    for path in copies:
        path.parent.mkdir()
        TABLE_VALLEY.save_csv(path)
    assert _spec_hash_line(capsys, copies[0]) == _spec_hash_line(capsys, copies[1])
    k = TABLE_VALLEY.k_per_m.copy()
    k[0] *= 1.01
    edited = tmp_path / "edited.csv"
    thz.AbsorptionTable(TABLE_VALLEY.frequency_hz, k).save_csv(edited)
    assert _spec_hash_line(capsys, edited) != _spec_hash_line(capsys, copies[0])


def _scenario2_sweep(table: str, out, fmt: str = "csv") -> str:
    argv = thz_argv("--scenario", "2", "--axis", "p2", "--grid", "0.3,0.7",
                    "--absorption-table", table, "--out", str(out),
                    "--format", fmt, *FIG6_FLAGS)
    assert cli.main(argv) == 0
    return out.read_text()


def test_scenario2_sweep_is_byte_identical(valley_csv, tmp_path):
    first = _scenario2_sweep(valley_csv, tmp_path / "a.csv")
    second = _scenario2_sweep(valley_csv, tmp_path / "b.csv")
    assert first == second
    assert [row[1] for row in cli.read_run_record(str(tmp_path / "a.csv")).rows] == [
        pytest.approx(0.2584638772012914, abs=1e-12),
        pytest.approx(0.19617620233937472, abs=1e-12),
    ]


def test_run_record_round_trip(valley_csv, tmp_path):
    csv_text = _scenario2_sweep(valley_csv, tmp_path / "r.csv")
    json_text = _scenario2_sweep(valley_csv, tmp_path / "r.json", fmt="json")
    from_csv = cli.read_run_record(str(tmp_path / "r.csv"))
    from_json = cli.read_run_record(str(tmp_path / "r.json"))
    assert from_csv.to_csv() == csv_text
    assert from_json.to_json() == json_text
    for field in ("spec_hash", "seed", "version", "columns", "rows"):
        assert getattr(from_csv, field) == getattr(from_json, field)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cached_parser_serves_successive_subcommands(capsys):
    # each in-process call prints what a fresh interpreter prints
    argvs = [canonical_argv("--grid", "0.3,0.5"), thz_argv("--axis", "p2", "--grid", "0.5")]
    in_process = [run_cli(capsys, argv)[:2] for argv in argvs]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    for argv, (code, out) in zip(argvs, in_process):
        fresh = subprocess.run([sys.executable, "-m", "metarel.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout)
        assert code == 0


def test_validate_report_serializes_numpy_bools():
    lines = [
        acceptance.CheckLine("within tolerance", np.float64(1.0) <= 2.0, "1 <= 2"),
        acceptance.CheckLine("outside tolerance", np.float64(3.0) <= 2.0, "3 > 2"),
    ]
    assert all(type(line.passed) is bool for line in lines)
    results = [acceptance._all_pass(1, "numpy comparisons", lines)]
    payload = json.loads(json.dumps(acceptance.results_to_json(results)))
    assert [c["passed"] for c in payload["criteria"][0]["checks"]] == [True, False]
    assert payload["passed"] is False
