import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as spstats

import gigwalk
from gigwalk import cli, kernels, stats, walk
from gigwalk.cli import main


def run(args):
    return main(args)


def _scrubbed(path):
    records = json.loads(path.read_text())
    for r in records:
        r.pop("runtime_ms")
    return records


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

    assert _scrubbed(a) == _scrubbed(b)


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


def test_control_densities_match_scipy():
    x = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 20001))
    for ours, ref in ((cli._lognormal_pdf, spstats.lognorm.pdf(x, 0.5)),
                      (cli._gamma2_pdf, spstats.gamma.pdf(x, 2.0))):
        keep = ref >= 1e-300
        assert keep.sum() > 10000
        assert np.max(np.abs(ours(x)[keep] / ref[keep] - 1.0)) <= 1e-13


@pytest.mark.parametrize("zu", [[], ["--z", "2", "--u", "1.5"]])
def test_characterize_controls_match_scipy(tmp_path, zu):
    out = tmp_path / "c.json"
    assert run(["characterize", "--seed", "1", "--out", str(out)] + zu) == 0
    by_name = {r["test"]: r for r in json.loads(out.read_text())}
    for name, pdf in (("lognormal", lambda t: spstats.lognorm.pdf(t, 0.5)),
                      ("gamma", lambda t: spstats.gamma.pdf(t, 2.0))):
        rec = by_name[f"characterization_{name}"]
        p = rec["params"]
        ref = kernels.characterization_discrepancy(pdf, p["z"], p["u"])
        assert rec["statistic"] == pytest.approx(ref, rel=1e-12)
        assert rec["pass"] == (ref > rec["threshold"])


def _loaded_after(code):
    # the scipy submodules a fresh interpreter holds after running code
    src = str(Path(gigwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (code + "\nimport sys\nprint(' '.join(m for m in ('scipy.integrate',"
             " 'scipy.optimize', 'scipy.stats') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_import_loads_no_integrate_optimize_or_stats():
    assert _loaded_after("import gigwalk, gigwalk.cli") == []


def test_characterize_loads_no_scipy_stats(tmp_path):
    out = tmp_path / "c.json"
    loaded = _loaded_after(
        "from gigwalk import cli\n"
        f"assert cli.main(['characterize', '--out', {str(out)!r}]) == 0")
    assert "scipy.stats" not in loaded


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--samples", "0"],
    ["dufresne", "--samples", "-5"],
    ["converge", "--samples", "0"],
])
def test_invalid_sample_count_exits_2(argv, capsys):
    assert run(argv + ["--workers", "1"]) == 2
    assert "samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_converge_below_one_step_exits_2(steps, capsys):
    assert run(["converge", "--steps", steps, "--samples", "200"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_reconstruct(tmp_path):
    out = tmp_path / "r.json"
    assert run(["reconstruct", "--lambda", "1", "--a", "1", "--seed", "5",
                "--samples", "100", "--steps", "20", "--out", str(out)]) == 0
    assert json.loads(out.read_text())[0]["params"]["non_finite"] == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, worst", [
    # X drifts to 0 and Z to inf; in float64 98 of these 200 paths
    # reconstructed an underflowed 0, read as a residual of exactly 1
    (["--lambda", "-1", "--a", "1", "--seed", "2"], 2.27e-13),
    # X and Z overflow; in float64 149 of these 200 residuals were NaN
    (["--lambda", "2", "--a", "0.5", "--seed", "1"], 4.55e-13),
], ids=["negative_drift", "positive_drift"])
def test_reconstruct_checks_paths_beyond_the_double_range(tmp_path, argv,
                                                          worst):
    out = tmp_path / "r.json"
    assert run(["reconstruct", "--steps", "1000", "--samples", "200",
                "--out", str(out)] + argv) == 0
    (rec,) = json.loads(out.read_text())
    assert rec["params"]["non_finite"] == 0 and rec["pass"]
    assert rec["statistic"] == pytest.approx(worst, rel=0.01)


def test_reconstruct_non_finite_residuals_fail(tmp_path, capsys, monkeypatch):
    # a NaN reconstruction must fail the record, not pass as a small residual
    exact, calls = walk.reconstruct_x_finite, []

    def nan_in_one_row(log_zs, log_n_future):
        out = exact(log_zs, log_n_future)
        if not calls:
            out[0] = np.nan
        calls.append(out.size)
        return out

    monkeypatch.setattr(walk, "reconstruct_x_finite", nan_in_one_row)
    out = tmp_path / "r.json"
    assert run(["reconstruct", "--steps", "30", "--samples", "200",
                "--seed", "1", "--out", str(out)]) == 1
    (rec,) = json.loads(out.read_text())
    assert rec["params"]["non_finite"] == 1 and not rec["pass"]
    assert sum(calls) == 200
    assert np.isfinite(rec["statistic"]) and rec["statistic"] < rec["threshold"]
    assert "1 of 200 residuals are non-finite" in capsys.readouterr().err


def test_converge(tmp_path):
    out = tmp_path / "conv.json"
    assert run(["converge", "--lambda", "1", "--a", "1", "--seed", "5",
                "--samples", "20000", "--steps", "200",
                "--out", str(out)]) == 0


MONTE_CARLO_ARGS = {
    "dufresne": ["dufresne", "--samples", "3000"],
    "converge": ["converge", "--samples", "2000", "--steps", "60"],
    "verify": ["verify", "--samples", "2000", "--steps", "20",
               "--grid-points", "1200"],
}


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.parametrize("command", sorted(MONTE_CARLO_ARGS))
def test_monte_carlo_workers_default_to_usable_cpus(command, tmp_path,
                                                    monkeypatch):
    seen = []
    sharded = stats._sharded

    def spy(draw, total, seed, workers=1):
        seen.append(workers)
        return sharded(draw, total, seed, workers)

    monkeypatch.setattr(stats, "_sharded", spy)
    assert run(MONTE_CARLO_ARGS[command] + ["--seed", "4",
                                           "--out", str(tmp_path / "r.json")]) == 0
    assert seen and set(seen) == {_usable_cpus()}


@pytest.mark.parametrize("command", ["dufresne", "converge"])
def test_worker_count_never_changes_the_report(command, tmp_path, monkeypatch):
    sharded_calls = {"dufresne": 1, "converge": 2}[command]
    # a floor of 500 samples a lane lets 2000-3000 samples fork
    monkeypatch.setattr(stats, "LANE_FLOOR", 500)
    forks = []  # the forks of this process; a child's count stays in it
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    samples = int(MONTE_CARLO_ARGS[command][2])
    reports, counts = [], []
    for extra in ([], ["--workers", "1"], ["--workers", "2"], ["--workers", "3"]):
        out = tmp_path / f"r{len(reports)}.json"
        before = len(forks)
        assert run(MONTE_CARLO_ARGS[command] + ["--seed", "9", "--out",
                                                str(out)] + extra) == 0
        reports.append(_scrubbed(out))
        counts.append(len(forks) - before)
    lanes = min(_usable_cpus(), 16, samples // 500)
    assert counts == [sharded_calls * (lanes - 1), 0, sharded_calls,
                      2 * sharded_calls]
    assert reports[0] == reports[1] == reports[2] == reports[3]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(workers, capsys):
    assert run(["dufresne", "--samples", "2000", "--seed", "3",
                "--workers", workers]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err


def test_workers_beyond_the_shards_fork_at_most_15_times(tmp_path, monkeypatch):
    monkeypatch.setattr(stats, "LANE_FLOOR", 1)
    attempts = []

    def fork():  # counts, then fails: every lane runs in this process
        attempts.append(1)
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", fork)
    reports = []
    for workers in ("1000000", "1"):
        out = tmp_path / f"r{workers}.json"
        assert run(["dufresne", "--samples", "2000", "--seed", "3",
                    "--workers", workers, "--out", str(out)]) == 0
        reports.append(_scrubbed(out))
    assert len(attempts) == 15
    assert reports[0] == reports[1]


@pytest.mark.parametrize("error", [walk.DivergenceError, ValueError, RuntimeError])
def test_child_lane_errors_exit_2(error, monkeypatch, capsys):
    caller = os.getpid()
    real = stats.n_infinity_batch

    def batch(*args):
        if os.getpid() != caller:
            raise error("lane failed")
        return real(*args)

    monkeypatch.setattr(stats, "n_infinity_batch", batch)
    assert run(["dufresne", "--samples", str(2 * stats.LANE_FLOOR),
                "--seed", "3", "--workers", "2"]) == 2
    assert "error: lane failed" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_lane_that_dies_exits_2(monkeypatch, capsys):
    # a lane process that leaves without sending its result
    monkeypatch.setattr(stats, "LANE_FLOOR", 100)
    caller = os.getpid()
    real = stats.n_infinity_batch

    def batch(*args):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(stats, "n_infinity_batch", batch)
    assert run(["dufresne", "--samples", "400", "--seed", "3",
                "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Monte Carlo lane process")
    assert "exit code 3" in err and "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
