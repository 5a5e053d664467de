"""Pinned random streams: the exact statistics of small seeded runs.

Each value below is the `repr` of a statistic computed from a fixed seed
before the 16 Monte Carlo shards were stepped in lockstep (gig.Streams), or,
for the CLI's reconstruction statistics, when the inversion moved to log
space (the draws were those of the float64 pins before it), so these tests
show that the seeded streams, and with them every seeded report, stayed
bit-identical.  The pins hold for the numpy build they were taken on
(numpy 2.4.6, x86-64); another build's Generator or ufunc rounding may
move them without any change to this package.

A change that alters a stream on purpose (a new sampler, a stopping rule,
another shard layout) must edit the pins it moves here and name each one in
CHANGES.md, together with the reason the stream changed.
"""

import json

import pytest

from gigwalk import cli
from gigwalk.stats import (donsker_check, dufresne_test, generator_drift_check,
                           n_part_statistics, scaling_limit_test,
                           z_independence_check)


@pytest.mark.parametrize("args, pinned", [
    ((1.0, 1.0, 2000, 11), "0.012765254525473335"),
    ((2.0, 0.5, 777, 12), "0.029587126902249128"),
    ((0.8, 1.2, 13, 18), "0.21614496494822294"),  # 13 draws: empty shards
])
def test_dufresne_statistic(args, pinned):
    assert repr(dufresne_test(*args).statistic) == pinned


def test_n_part_statistics():
    res = n_part_statistics(1.5, 0.8, [1, 10, 50], 1500, 13)
    assert {m: repr(r.statistic) for m, r in res.items()} == {
        1: "0.08133333333333337", 10: "0.034", 50: "0.034"}


def test_scaling_limit_statistic():
    res = scaling_limit_test(1.0, 50, 0.5, 400, 1e-2, 14)
    assert repr(res.ks.statistic) == "0.04749999999999999"


def test_donsker_statistic():
    assert repr(donsker_check(0.7, 50, 1.0, 1000, 15).statistic) == \
        "0.02171289272114124"


def test_z_independence_statistics():
    null = z_independence_check(1.0, 1.0, 30, 2000, 16)
    assert repr(null.max_abs_correlation) == "0.0179232496461394"
    ctrl = z_independence_check(1.0, 1.0, 30, 2000, 16, statistic="log_x")
    assert repr(ctrl.max_abs_correlation) == "0.21127591530437018"
    assert repr(ctrl.distance_correlation) == "0.10920312641652696"


def test_generator_drift_estimates():
    # sums per shard: the lockstep groups must reduce each shard on its own
    res = generator_drift_check(1.0, 1.0, 50, 20000, 17, min_hits=100)
    assert res.window_hits == 1316
    assert repr(res.drift_estimate) == "2.279102112914227"
    assert repr(res.diffusion_estimate) == "1.0831318399080394"


@pytest.mark.parametrize("argv, pinned", [
    (["reconstruct", "--seed", "3"], "3.552713678800507e-15"),
    (["reconstruct", "--samples", "2000", "--steps", "100", "--lambda", "0.5",
      "--a", "2", "--seed", "21"], "8.437694987151226e-15"),
    (["reconstruct", "--samples", "3000", "--steps", "100", "--lambda", "2",
      "--a", "0.5", "--seed", "4"], "2.842170943040441e-14"),
    (["reconstruct", "--samples", "3000", "--steps", "100", "--lambda", "1.7",
      "--a", "1.3", "--seed", "99"], "1.4210854715202105e-14"),
])
def test_reconstruction_statistic(tmp_path, argv, pinned):
    # the worst residual over every path, each batch of paths assembled as
    # padded rows: any path whose residual moved could move it
    report = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(report)]) == 0
    records = {r["test"]: r["statistic"] for r in json.loads(report.read_text())}
    assert repr(records["reconstruction_identity"]) == pinned
