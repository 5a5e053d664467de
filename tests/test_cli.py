import csv
import json

import pytest

from gigwalk import kernels
from gigwalk.cli import main


def run(args):
    return main(args)


def test_simulate_writes_schema(tmp_path):
    out = tmp_path / "path.csv"
    assert run(["simulate", "--lambda", "1", "--a", "1", "--delta", "1",
                "--steps", "100", "--seed", "7", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["k", "gamma", "x", "z", "n_na", "n_an"]
    assert len(rows) == 101
    assert [r[0] for r in rows[1:4]] == ["1", "2", "3"]
    # full-precision round trip
    assert float(rows[1][2]) == float(rows[1][1])  # X_1 = gamma_0


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["simulate", "--steps", "50", "--seed", "3", "--out", str(a)])
    run(["simulate", "--steps", "50", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--lambda", "1", "--a", "1", "--seed", "42",
                "--samples", "4000", "--grid-points", "1200",
                "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    names = {r["test"] for r in records}
    assert {"intertwining", "detailed_balance", "stationarity", "dufresne",
            "reconstruction_identity"} <= names
    assert all(r["pass"] for r in records)
    assert all(r["schema_version"] == 1 for r in records)


def test_report_deterministic_modulo_runtime(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["dufresne", "--lambda", "1", "--a", "1", "--seed", "11",
            "--samples", "3000"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])

    def scrub(p):
        recs = json.loads(p.read_text())
        for r in recs:
            r.pop("runtime_ms")
        return recs

    assert scrub(a) == scrub(b)


def test_moments_table(tmp_path):
    out = tmp_path / "m.json"
    assert run(["moments", "--lambda", "2", "--a", "30", "--seed", "1",
                "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 4
    for rec in records:
        assert abs(rec["statistic"] - 1.0) < 0.02


def test_characterize(tmp_path):
    out = tmp_path / "c.json"
    assert run(["characterize", "--lambda", "0.7", "--a", "1.2",
                "--z", "1.5", "--u", "2.0", "--seed", "1",
                "--grid-points", "2000", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    by_name = {r["test"]: r for r in records}
    assert by_name["characterization_gig"]["statistic"] < 1e-7
    assert by_name["characterization_lognormal"]["statistic"] > 1e-3
    assert by_name["characterization_gamma"]["statistic"] > 1e-3


def test_reconstruct(tmp_path):
    out = tmp_path / "r.json"
    assert run(["reconstruct", "--lambda", "1", "--a", "1", "--seed", "5",
                "--samples", "100", "--steps", "20", "--out", str(out)]) == 0


def test_converge(tmp_path):
    out = tmp_path / "conv.json"
    assert run(["converge", "--lambda", "1", "--a", "1", "--seed", "5",
                "--samples", "20000", "--steps", "200",
                "--out", str(out)]) == 0


def test_csv_report_format(tmp_path):
    out = tmp_path / "rep.csv"
    assert run(["moments", "--lambda", "1", "--a", "30", "--seed", "2",
                "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    assert rows[0]["schema_version"] == "1"
    assert json.loads(rows[0]["params"])["a"] == 30.0


def test_seed_env_fallback(tmp_path, monkeypatch):
    out = tmp_path / "rep.json"
    monkeypatch.setenv("GIGWALK_SEED", "777")
    run(["moments", "--lambda", "1", "--a", "30", "--out", str(out)])
    records = json.loads(out.read_text())
    assert all(r["seed"] == 777 for r in records)


def test_exit_codes(tmp_path):
    # usage error -> 2 (argparse)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # domain error -> 2
    assert run(["simulate", "--delta", "-1", "--out",
                str(tmp_path / "x.csv")]) == 2
    # failing check -> 1 (tolerance tighter than double precision)
    out = tmp_path / "f.json"
    code = run(["intertwine", "--lambda", "1", "--a", "1", "--z", "1",
                "--seed", "1", "--grid-points", "1200", "--tol", "1e-20",
                "--out", str(out)])
    assert code == 1
    records = json.loads(out.read_text())
    assert any(not r["pass"] for r in records)


def test_non_finite_parameter_exits_2(capsys):
    # fails fast as a usage error instead of spinning the GIG rejection sampler
    assert run(["dufresne", "--lambda", "nan", "--a", "1", "--samples", "1000",
                "--workers", "1"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_fast_drifting_walk_converges(tmp_path):
    # at lambda = 2, a = 0.5, X_1000 leaves the double range on every path;
    # the NA-part recursion never forms X, so N_1000 stays finite
    out = tmp_path / "c.json"
    assert run(["converge", "--lambda", "2", "--a", "0.5", "--steps", "1000",
                "--samples", "2000", "--workers", "1", "--seed", "3",
                "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [r["params"]["n"] for r in records] == [10, 50, 1000]
    assert all(0.0 < r["statistic"] < 1.0 for r in records)


def test_sampler_stall_exits_2(capsys):
    assert run(["dufresne", "--lambda", "2", "--a", "0.001", "--samples", "1000",
                "--workers", "1"]) == 2
    assert "10000 rounds" in capsys.readouterr().err


def test_stationarity_beyond_double_range_exits_2(tmp_path, capsys):
    # pi = inverse-gamma(0.05, 1/2) keeps mass 1e-14 beyond exp(644)
    assert run(["intertwine", "--lambda", "0.05", "--seed", "1",
                "--out", str(tmp_path / "i.json")]) == 2
    assert "double range" in capsys.readouterr().err


def _grid_sizes(monkeypatch):
    # the size of the grid the CLI passes to each kernel check (None: none)
    sizes = {}

    def spy(name):
        real = getattr(kernels, name)

        def call(*args):
            grid = args[-1]
            sizes[name] = None if grid is None else grid.size
            return real(*args)
        monkeypatch.setattr(kernels, name, call)

    spy("intertwining_residuals")
    spy("check_stationarity")
    return sizes


def test_grid_points_sets_every_kernel_grid(tmp_path, monkeypatch):
    sizes = _grid_sizes(monkeypatch)
    assert run(["intertwine", "--seed", "1", "--grid-points", "1200",
                "--out", str(tmp_path / "i.json")]) == 0
    assert sizes == {"intertwining_residuals": 1200, "check_stationarity": 1200}


def test_default_grids_are_left_to_the_library(tmp_path, monkeypatch):
    sizes = _grid_sizes(monkeypatch)
    assert run(["intertwine", "--seed", "1",
                "--out", str(tmp_path / "i.json")]) == 0
    assert sizes == {"intertwining_residuals": None, "check_stationarity": None}
