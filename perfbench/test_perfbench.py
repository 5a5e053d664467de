"""Checks of the benchmark itself: metric names, self time, tail rule, inputs."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def _job(wall, start=0.0, statistic=0.0, passed=True):
    outcome = workloads.Outcome([workloads.Check("t", statistic, 1.0, passed, True)])
    return run.JobResult({}, start, wall, outcome, None, 0)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    bench = _benchmark_json()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == run.per_layer_specs()

    jobs = [_job(1.0 + 0.1 * i) for i in range(12)]
    e2e, extra = run.end_to_end(jobs, [(0.8, 0.001)] * 3)
    assert set(e2e) == set(run.END_TO_END)
    assert set(run.UNGATED) <= set(extra)

    spans = [tracer.Span(0, None, 0, 1, "cli.main", 0.0, 1.0)]
    rows = [(_job(1.0), _job(1.0, start=0.0), None)]
    layers = run.layer_metrics(rows, spans, tracer.self_times(spans),
                               [(0.8, 0.001)], pooled=False)
    assert set(layers) == set(run.per_layer_specs())
    assert all(isinstance(v, float) and np.isfinite(v) for v in layers.values())


def test_self_time_counts_pool_thread_gaps_once():
    # parent on thread 1 waits while two pool threads run children
    spans = [
        tracer.Span(0, None, 0, 1, "parent", 0.0, 10.0),
        tracer.Span(1, 0, 0, 2, "child", 1.0, 3.0),
        tracer.Span(2, 0, 0, 2, "child", 4.0, 6.0),  # gap 3..4 on thread 2
        tracer.Span(3, 0, 0, 3, "child", 1.0, 6.0),
        tracer.Span(4, 0, 0, 1, "child", 8.0, 9.0),
    ]
    st = tracer.self_times(spans)
    # own thread: 10 - |[1,6] u [8,9]| = 4; pool gaps: 1 on thread 2
    assert st[0] == 5.0
    assert st[1] == 2.0 and st[4] == 1.0


def test_union_length_merges_and_clips():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == 3.0
    assert tracer.union_length([], 0, 1) == 0.0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0


def test_inputs_follow_the_seed_and_stay_in_the_box():
    a = workloads.box_points(np.random.default_rng(7))
    b = workloads.box_points(np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert a.shape == (workloads.LATTICE_SIZE, 2)
    assert np.all((a >= workloads.BOX[0]) & (a <= workloads.BOX[1]))
    batch = workloads.WORKLOADS["scaling_limit"].batch(np.random.default_rng(7))
    assert [p["t"] for p in batch] == list(workloads.SCALING_TIMES)
    assert all(p["lambda"] in workloads.SCALING_LAMBDAS for p in batch)


def test_tracer_rebinds_every_namespace_and_restores():
    from gigwalk import gig, stats, walk

    original = gig.gig_sample
    t = tracer.Tracer()
    t.install(job=0)
    try:
        assert walk.gig_sample is not original
        assert stats.gig_sample is walk.gig_sample
        walk.n_infinity_batch(1.0, 1.0, 50, np.random.default_rng(0))
    finally:
        t.uninstall()
    assert walk.gig_sample is original and stats.gig_sample is original
    names = {s.name for s in t.spans}
    assert names == {"walk.n_infinity_batch", "gig.gig_sample"}
    inner = [s for s in t.spans if s.name == "gig.gig_sample"]
    outer = next(s for s in t.spans if s.name == "walk.n_infinity_batch")
    assert all(s.parent == outer.sid for s in inner)
    assert inner[0].count == 50


def test_job_time_is_each_points_fastest_execution():
    jobs = [run.JobResult({"x": 1}, 0.0, 2.0, _job(0).outcome, None, 0),
            run.JobResult({"x": 1}, 0.0, 1.0, _job(0).outcome, None, 0),
            run.JobResult({"x": 2}, 0.0, 3.0, _job(0).outcome, None, 0)]
    e2e, _ = run.end_to_end(jobs, [(0.8, 0.001)])
    assert e2e["job_s_p50"] == 2.0 and e2e["jobs_per_s"] == 0.5

    differing = [_job(1.0, statistic=0.1), _job(1.0, statistic=0.2)]
    run.check_repeats(differing)
    assert not differing[0].problems and differing[1].problems
