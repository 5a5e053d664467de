"""Summarise benchmark runs over several seeds into one baseline record.

After running every workload with ``--trace 0`` and ``--trace 1`` for each
seed (``run.py --all`` does both), run from the root of the checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload it gives the median, quartiles and spread (interquartile
range over median) of every end-to-end metric across the seeds, the median
of every per-layer metric, the trace summary (top self-time layer, tracing
overhead, unattributed time) and every failed job with its parameters.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import END_TO_END, OUT_DIR, UNGATED, WORKLOAD_NAMES


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(name, seeds):
    untraced, traced = [], []
    for seed in seeds:
        for trace, into in ((0, untraced), (1, traced)):
            path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
            if path.exists():
                with open(path) as fh:
                    into.append(json.load(fh))
    if not untraced:
        return None
    out = {"seeds": len(untraced), "provenance": untraced[0]["provenance"],
           "end_to_end": {}, "ungated": {}, "failures": [], "problems": []}
    for key, (unit, _, bound) in END_TO_END.items():
        q1, med, q3 = quartiles([d["metrics"][key] for d in untraced])
        out["end_to_end"][key] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med, "bound": bound,
                                  "unit": unit}
    for key, unit in UNGATED.items():
        values = [d["ungated"][key] for d in untraced
                  if d["ungated"][key] is not None]
        out["ungated"][key] = {"median": statistics.median(values) if values
                               else None, "runs": len(values), "unit": unit}
    out["ungated"]["job_s_tail"]["percentile_median"] = statistics.median(
        d["ungated"]["job_s_tail_percentile"] for d in untraced) if \
        out["ungated"]["job_s_tail"]["runs"] == len(untraced) else None
    out["jobs_per_run"] = statistics.median(d["attempted"] for d in untraced)
    for d in untraced + traced:
        out["failures"] += d["failures"]
        out["problems"] += d["problems"]
    if traced:
        layers = {k: statistics.median(d["metrics"][k] for d in traced)
                  for k in traced[0]["metrics"]}
        top = max((k for k in layers if k.endswith(".self_s")),
                  key=layers.get)
        out["trace"] = {"runs": len(traced),
                        "top_self_time_layer": top[:-len(".self_s")],
                        "top_self_s_per_job": layers[top],
                        "overhead_frac": layers["trace.overhead_frac"],
                        "unattributed_frac": layers["trace.unattributed_frac"]}
        out["per_layer"] = {k: v for k, v in layers.items() if v != 0.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="range such as 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    record = {"seeds": seeds, "workloads": {}}
    workers = {}
    for name in WORKLOAD_NAMES:
        summary = summarise(name, seeds)
        if summary is not None:
            provenance = summary.pop("provenance")
            workers[name] = provenance["workers"]
            record["workloads"][name] = summary
    if not record["workloads"]:
        print(f"error: no runs for seeds {args.seeds} under {OUT_DIR}",
              file=sys.stderr)
        return 2
    for key in ("workload", "workload_seed"):
        provenance.pop(key)
    provenance["workers"] = workers
    record["provenance"] = provenance
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, s in record["workloads"].items():
        cells = [f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
                 for k, v in s["end_to_end"].items()]
        print(f"{name}: " + ", ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
