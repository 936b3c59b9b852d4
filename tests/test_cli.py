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
