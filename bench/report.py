#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the runs.

From the repository root:

    python3 bench/report.py --workloads wide,tight,pivot --seeds 1-10 \
        --seconds 30 [--sets 2] [--trace]

Each run is ``bench/run.py`` in its own process, one after another.  With
``--sets N`` there are N sets of runs, set k taking the seeds shifted by k
times their count, and the sets are interleaved (for each seed, each
workload, each set in turn), so that a drift of the machine falls on every
set alike.  For every set, workload and metric the summary gives the
median, the quartiles and the spread (interquartile distance over the
median) across the seeds, the failed-operation share, and the merged case
histogram; it then checks the spreads and the change of each median from
the first set against the bounds in ``BENCHMARK.json``.  With ``--trace``
a traced run follows each untraced run of the first set, and the summary
adds the per-layer medians and the tracing overhead: each traced run's
operation spans against the same statistic over all samples of the
untraced run of the same seed, median over the seeds.  The summary goes to
standard output and to ``bench/out/report.json``; the exit code is 1 if a
check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# whole-run statistic of the untraced run -> (span name, percentile or None
# for the mean, scale from ns) of the same operation
OVERHEAD = {"plan_p50_us": ("planner.plan", 50, 1e3),
            "couple_p90_us": ("motion.couple", 90, 1e3),
            "certify_mean_ms": ("oracle.certify", None, 1e6),
            "verify_mean_ms": ("cli.verify", None, 1e6)}


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(
        (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail, wall


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def _span_stat(workload, seed, name, pct, scale):
    path = OUT / f"spans-{workload}-seed{seed}-trace1.jsonl"
    durations = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row[0] == name:
                durations.append(row[2] - row[1])
    value = np.mean(durations) if pct is None else np.percentile(durations,
                                                                 pct)
    return float(value) / scale


def _summary(workload, runs, traced, seeds):
    metrics = {}
    for name in runs[0][0]["metrics"]:
        med, q1, q3, spread = _spread(
            [r["metrics"][name]["value"] for r, _, _ in runs])
        metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    hist = {}
    for _, detail, _ in runs:
        for case, count in detail["case_histogram"].items():
            hist[case] = hist.get(case, 0) + count
    entry = {
        "metrics": metrics,
        "failed_share": sorted({f"{r['failed']}/{r['attempted']}"
                                for r, _, _ in runs}),
        "failed_fraction": sorted({r["failed"] / r["attempted"]
                                   for r, _, _ in runs}),
        "correct": all(r["correct"] for r, _, _ in runs),
        "case_histogram": dict(sorted(hist.items())),
        "instances_per_run": statistics.median(
            d["instances"] for _, d, _ in runs),
        "rounds_per_run": statistics.median(d["rounds"] for _, d, _ in runs),
        "wall_s_max": max(w for _, _, w in runs),
    }
    if traced:
        entry["per_layer"] = {
            name: statistics.median(
                r["metrics"][name]["value"] for r, _, _ in traced)
            for name in traced[0][0]["metrics"]}
        # each traced run against the untraced run just before it
        entry["overhead"] = {
            name: statistics.median(
                _span_stat(workload, seed, span, pct, scale)
                / d["whole_run"][name] - 1.0
                for seed, (_, d, _) in zip(seeds, runs))
            for name, (span, pct, scale) in OVERHEAD.items()}
        entry["traced_wall_s_max"] = max(w for _, _, w in traced)
    return entry


def _print(workload, k, entry):
    print(f"== {workload} set {k}: correct={entry['correct']} "
          f"failed={entry['failed_share']} "
          f"instances/run={entry['instances_per_run']} "
          f"rounds/run={entry['rounds_per_run']} "
          f"wall<={entry['wall_s_max']:.1f}s")
    for name, m in entry["metrics"].items():
        print(f"   {name:<18} median {m['median']:12.4f}  "
              f"q1 {m['q1']:12.4f}  q3 {m['q3']:12.4f}  "
              f"spread {m['spread']:.4f}")
    print(f"   cases {entry['case_histogram']}")
    for name, value in entry.get("per_layer", {}).items():
        print(f"   {name:<36} {value:12.4f}")
    for name, value in entry.get("overhead", {}).items():
        print(f"   overhead {name:<16} {value:+.1%}")


def _check(summary, sets):
    """Spreads within the bounds, medians of later sets not worse than the
    first set's by more than the bounds, the same failed shares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload, per_set in summary.items():
        first = per_set[0]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            for k in range(sets):
                entry = per_set[k]["metrics"][name]
                if name != "setup_s" and entry["spread"] > bound:
                    problems.append(f"{workload} set {k} {name}: spread "
                                    f"{entry['spread']:.3f} > {bound}")
                worse = sign * (entry["median"]
                                / first["metrics"][name]["median"] - 1.0)
                print(f"   {workload:<6} set {k} {name:<18} spread "
                      f"{entry['spread']:.3f}  median vs set 0 "
                      f"{worse:+.3f} (worse if positive)")
                if worse > bound:
                    problems.append(f"{workload} set {k} {name}: median "
                                    f"{worse:+.3f} worse than set 0")
        if len({tuple(e["failed_fraction"]) for e in per_set}) != 1 \
                or len(first["failed_fraction"]) != 1:
            problems.append(f"{workload}: failed shares differ")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="wide,tight,pivot")
    ap.add_argument("--seeds", default="1-10", help="range such as 1-10")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    seeds = _seeds(args.seeds)
    workloads = args.workloads.split(",")
    runs = {(w, k): [] for w in workloads for k in range(args.sets)}
    traced = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for k in range(args.sets):
                runs[workload, k].append(_run(
                    workload, seed + k * len(seeds), args.seconds, 0))
                if args.trace and k == 0:
                    traced[workload].append(
                        _run(workload, seed, args.seconds, 1))
        print(f"-- seed {seed} done", file=sys.stderr)
    summary = {}
    for workload in workloads:
        summary[workload] = []
        for k in range(args.sets):
            shifted = [s + k * len(seeds) for s in seeds]
            entry = _summary(workload, runs[workload, k], traced[workload]
                             if k == 0 else [], shifted)
            entry["seeds"] = f"{shifted[0]}-{shifted[-1]}"
            summary[workload].append(entry)
            _print(workload, k, entry)
    problems = _check(summary, args.sets)
    for line in problems:
        print(f"OUT OF BOUND: {line}")
    print(f"checks: {'all within bounds' if not problems else 'see above'}")
    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(
        {"summary": summary, "problems": problems}, indent=1))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
