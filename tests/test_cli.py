import hashlib
import json

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
        thz_argv("--axis", "p2", "--grid", "0.5", "--anchors", "a,b"),
        thz_argv("--axis", "p2", "--grid", "0.5", "--method", "both", "--trials", "10,x,10"),
        thz_argv("--axis", "bw", "--grid", "5e8,1e9", "--method", "monte_carlo"),
        thz_argv("--axis", "bw", "--grid", "5e8,1e9", "--method", "both"),
    ],
    ids=["grid-list", "grid-range", "grid-count", "canonical-trials", "targets", "orders",
         "anchors", "thz-trials", "bw-monte-carlo", "bw-both"],
)
def test_malformed_flags_exit_2(argv, capsys):
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


@pytest.mark.parametrize(
    "text, code, prefix",
    [("alpha 3.0\n", 2, "usage error: "), (None, 4, "ingest error: ")],
    ids=["no-equals", "missing"],
)
def test_bad_config_file_exits(tmp_path, capsys, text, code, prefix):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    got, out, err = run_cli(capsys, CONFIG_ARGV + ["--config", str(path)])
    assert got == code and out == ""
    assert_one_line_error(err, prefix)


# spec_hash and the sha256 of stdout for one sweep per command: any change
# to the emitted bytes, including the hash payload, shows here
@pytest.mark.parametrize(
    "argv, spec_hash, digest",
    [
        (
            canonical_argv("--method", "both", "--grid", "0.3,0.5,0.8", "--zeta", "0.5",
                           "--trials", "200,20,200"),
            "08df42c88d76d95c",
            "3e5455b86949e5aa94db5209fb7004086a125f917956fa32483f2c280e1865a7",
        ),
        (
            bandwidth_argv("--targets", "0.3,0.6,0.9", "--zeta", "0.5", "--w-low", "3e4"),
            "2af70e149205914f",
            "14ba0cdec173c526586f2896fb21c0f67b9dc7ff3f3c868aa65dd59e50619a61",
        ),
        (
            thz_argv("--scenario", "1", "--axis", "p2", "--grid", "0.3,0.5,0.7"),
            "8c12f34189e0188e",
            "220ba0e63c51c7313f9a232da07adfa7fd46463d95f239ede399c70c178cfaa9",
        ),
    ],
    ids=["canonical-both", "bandwidth", "thz-scenario1"],
)
def test_sweep_output_is_pinned(argv, spec_hash, digest, capsys):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert f"# spec_hash={spec_hash}\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        pytest.approx(0.2584638772050173, abs=1e-12),
        pytest.approx(0.19617620234201294, abs=1e-12),
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
