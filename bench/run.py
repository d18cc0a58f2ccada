#!/usr/bin/env python3
"""Plan-couple-certify-verify benchmark of discmotion.

Usage, from the repository root:

    python3 bench/run.py --workload {wide,tight,pivot} --seed N \
        --seconds S --trace {0,1}

A single process and a single thread drive the program from the sources in
``src/`` (nothing needs installing) over a seeded instance stream:

* every instance: ``plan(inst)`` and ``couple(report.chosen)``;
* the first instance of every block of ten: ``certify(inst, report)``;
* once per block, on the next document of a fixed verify set (instances of
  the same workload drawn from a seed of their own, so that which of them
  ``verify`` rejects does not depend on ``--seed``): in-process
  ``discmotion plan <inst> --couple --out <doc>`` and
  ``discmotion verify <doc>``.

A round is one block per verify document; whole rounds repeat until S
seconds of operations have run, and each time metric is read from the
fastest round.  Every output is checked by the independent gate in
``gate.py``, outside the timed regions, and the gate's self-test runs.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics, end-to-end
with ``--trace 0`` and per layer with ``--trace 1``.  The traced run also
writes its spans to ``bench/out/``.  See ``bench/README.md``.
"""

import os
import sys
import time

_SCRIPT_START = time.perf_counter()
# single-threaded numerics
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

import corpora  # noqa: E402
import gate  # noqa: E402
import selftest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

BLOCK = 10              # instances per block; the first is certified
VERIFY_SET = 20         # documents in the verify set; one per block
VERIFY_SEED = "verify-set"
COUNT_PREFIX = 500      # instances over which the coupling counts are taken

CASE_CLASS = {"Case1a": "case1", "Case1b": "case1", "Case2a": "case2",
              "Case2b": "case2", "Case3a": "case3", "Case3b": "case3"}


def import_program():
    """Import discmotion from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "discmotion" / "__init__.py").is_file():
        raise SystemExit(f"error: no discmotion sources under {src}")
    sys.path.insert(0, str(src))
    import discmotion
    if Path(discmotion.__file__).resolve().parent != src / "discmotion":
        raise SystemExit(f"error: imported discmotion from "
                         f"{discmotion.__file__}, not from {src}")
    return discmotion


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, instance]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.instance = -1

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, parent,
                           self.instance])

    def end(self):
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    def call(self, name, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def wrap(self, module, attr, name_of, skip_under=()):
        """Replace module.attr by a span-recording wrapper; returns the
        original.  ``name_of(args)`` names the span; calls made inside a
        span named in ``skip_under`` record none."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] in skip_under:
                return original(*args, **kwargs)
            self.begin(name_of(args))
            try:
                return original(*args, **kwargs)
            finally:
                self.end()

        setattr(module, attr, wrapper)
        return original

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans
                if n == name]


class Item:
    """One corpus instance and what the program made of it."""

    __slots__ = ("index", "raw", "inst", "report", "coupled", "plan_ns",
                 "inst_path", "doc_path", "verified")

    def __init__(self, index, raw, inst):
        self.index, self.raw, self.inst = index, raw, inst
        self.report = self.coupled = None
        self.plan_ns = 0
        self.verified = None    # the first verify verdict of a document


def sliver_count(motion) -> int:
    """Coupled primitives shorter than 1e-6 (1 + length)."""
    cut = 1e-6 * (1.0 + motion.length)
    return sum(1 for p in motion.traj_a.primitives + motion.traj_b.primitives
               if p.length < cut)


def _instance_json(raw) -> str:
    s, a0, b0, a1, b1 = raw
    return json.dumps({"s": s, "A0": a0, "B0": b0, "A1": a1, "B1": b1})


class Bench:
    def __init__(self, dm, workload, seed, workdir, traced):
        from discmotion import cli, geom, motion, oracle, planner, support
        self.dm, self.cli, self.geom, self.motion = dm, cli, geom, motion
        self.oracle, self.planner, self.support = oracle, planner, support
        self.generate = corpora.GENERATORS[workload]
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tracer = Tracer() if traced else None
        self.generated = 0
        self.cases = {}
        self.coupling = [0, 0, 0]   # primitives, joint windows, slivers
        self.samples = {k: [] for k in ("plan", "couple", "certify",
                                        "verify", "certified")}
        self.round_ends = []        # sample counts at the end of each round
        self.attempted = self.failed = 0
        self.excluded_ns = 0        # time spent outside the operations
        self.faults = []
        self.residual = 0.0
        self.straight_checked = 0
        self.doc_bytes = []
        self.grid_peaks = []
        verify_rng = random.Random(f"{VERIFY_SEED}-{workload}")
        self.verify_set = [self._item(f"verify-{j}", self.generate(verify_rng))
                           for j in range(VERIFY_SET)]
        self.fixtures = {k: self._item(f"fixture-{k}", raw)
                         for k, raw in corpora.CASE_FIXTURES.items()}

    def _item(self, index, raw):
        s, a0, b0, a1, b1 = raw
        P, Pl = self.geom.Point, self.geom.Placement
        return Item(index, raw, self.geom.Instance(
            s, Pl(P(*a0), P(*b0)), Pl(P(*a1), P(*b1))))

    # -- operations ------------------------------------------------------

    def _op(self, name, fn, *args):
        """Run one operation; returns (result, ns), result None on a
        DiscMotionError."""
        self.attempted += 1
        tr = self.tracer
        if tr is not None:
            tr.begin(name)
        t0 = perf_counter_ns()
        try:
            result = fn(*args)
        except self.dm.DiscMotionError:
            result = None
        ns = perf_counter_ns() - t0
        if tr is not None:
            tr.end()
        if result is None:
            self.failed += 1
        return result, ns

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli.main(argv)
        return rc == 0 or None

    def plan_and_couple(self, item):
        if self.tracer is not None:
            self.tracer.instance = item.index
        item.report, ns = self._op("planner.plan", self.dm.plan, item.inst)
        if item.report is None:
            self.attempted += 1     # the couple that cannot run
            self.failed += 1
            return
        item.plan_ns = ns
        self.samples["plan"].append(ns)
        if self.tracer is not None:
            self.samples.setdefault(
                "plan_" + CASE_CLASS[item.report.case], []).append(ns)
        item.coupled, ns = self._op("motion.couple", self.dm.couple,
                                    item.report.chosen)
        if item.coupled is not None:
            self.samples["couple"].append(ns)

    def certify_item(self, item):
        if self.tracer is not None:
            self.tracer.instance = item.index
            self.tracer.call("motion.placement_angle_profile",
                             self.motion.placement_angle_profile,
                             item.report.chosen, 256)
        cert, ns = self._op("oracle.certify", self._certify, item)
        if cert is not None:
            self.samples["certify"].append(ns)
            self.samples["certified"].append(item.plan_ns + ns)

    def _certify(self, item):
        cert = self.dm.certify(item.inst, item.report)
        return cert if cert.passed else None

    def plan_and_verify(self, item):
        """``discmotion plan --couple`` and ``verify`` on a verify-set
        instance."""
        if self.tracer is not None:
            self.tracer.instance = item.index
        planned, _ = self._op("cli.plan_doc", self._cli,
                              ["plan", str(item.inst_path), "--couple",
                               "--out", str(item.doc_path)])
        ok, ns = self._op("cli.verify", self._cli,
                          ["verify", str(item.doc_path)])
        self.samples["verify"].append(ns)   # rejections too
        t0 = perf_counter_ns()
        verdict = bool(ok)
        if item.verified is None and planned:
            item.verified = verdict
            text = item.doc_path.read_text()
            self.doc_bytes.append(len(text.encode()))
            self._check_doc(item, json.loads(text))
        elif item.verified != verdict:
            self.faults.append((item.index, "verify verdict changed"))
        self.excluded_ns += perf_counter_ns() - t0

    # -- correctness gate ------------------------------------------------

    def _after_plan(self, item):
        """Gate one planned instance and count what it made."""
        if item.report is None or item.coupled is None:
            return
        case = item.report.case
        self.cases[case] = self.cases.get(case, 0) + 1
        if item.index < COUNT_PREFIX:
            m = item.coupled
            self.coupling[0] += (len(m.traj_a.primitives)
                                 + len(m.traj_b.primitives))
            self.coupling[1] += sum(1 for it in m.schedule
                                    if it.a_hi > it.a_lo
                                    and it.b_hi > it.b_lo)
            self.coupling[2] += sliver_count(m)
        length = item.report.chosen.length
        faults, residual = gate.length_faults(item.raw, length)
        self.residual = max(self.residual, residual)
        self.straight_checked += corpora.clearly_straight(item.raw)
        faults += gate.document_faults(
            gate.motion_document(item.raw, item.report.chosen))
        faults += gate.document_faults(
            gate.motion_document(item.raw, item.coupled), length)
        self.faults += [(item.index, f) for f in faults]

    def _check_doc(self, item, doc):
        faults = gate.document_faults(doc, item.report.chosen.length)
        if gate.document_instance(doc) != item.raw:
            faults.append("document names another instance")
        self.faults += [(item.index, "cli: " + f) for f in faults]

    # -- rounds ----------------------------------------------------------

    def _next_item(self):
        item = self._item(self.generated, self.generate(self.rng))
        self.generated += 1
        return item

    def block(self, verify_item):
        t0 = perf_counter_ns()
        block = [self._next_item() for _ in range(BLOCK)]
        self.excluded_ns += perf_counter_ns() - t0
        for item in block:
            self.plan_and_couple(item)
            if self.tracer is not None:
                self.layer_calls(item)
            t0 = perf_counter_ns()
            self._after_plan(item)
            self.excluded_ns += perf_counter_ns() - t0
        if block[0].report is not None:
            self.certify_item(block[0])
        else:
            self.attempted += 1     # the certify that cannot run
            self.failed += 1
        self.plan_and_verify(verify_item)
        return block[0]

    def round(self):
        first = [self.block(item) for item in self.verify_set][0]
        self.round_ends.append({k: len(v) for k, v in self.samples.items()})
        if self.tracer is not None and first.report is not None:
            self.traced_extras(first)

    def warm_up(self):
        """Write the verify-set instances and plan them (the gate needs
        their decoupled lengths), then run every operation once on a
        fixture."""
        for j, item in enumerate(self.verify_set):
            item.inst_path = self.workdir / f"verify-{j}.json"
            item.doc_path = self.workdir / f"verify-{j}-plan.json"
            item.inst_path.write_text(_instance_json(item.raw))
            item.report = self.dm.plan(item.inst)
        item = self.fixtures["case2"]
        item.report = self.dm.plan(item.inst)
        item.coupled = self.dm.couple(item.report.chosen)
        self.dm.certify(item.inst, item.report)
        path = self.workdir / "warm.json"
        path.write_text(_instance_json(item.raw))
        doc = self.workdir / "warm-plan.json"
        self._cli(["plan", str(path), "--couple", "--out", str(doc)])
        self._cli(["verify", str(doc)])
        gate.support_lengths(item.raw)

    def run(self, seconds):
        budget = int(seconds * 1e9)
        start = perf_counter_ns()
        while perf_counter_ns() - start - self.excluded_ns < budget:
            self.round()
        self.measured_s = (perf_counter_ns() - start - self.excluded_ns) / 1e9
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- tracing ---------------------------------------------------------

    def install_wrappers(self):
        """Spans around the calls certify makes into other layers.  The
        grid search makes its own min_separation and placement-angle calls
        on its best motion; those stay inside its span."""
        tr, oracle = self.tracer, self.oracle
        grid = ("oracle.pivot_grid_search",)
        self._originals = {
            "pivot_grid_search": tr.wrap(
                oracle, "pivot_grid_search",
                lambda a: "oracle.pivot_grid_search"),
            "quadrature_bound": tr.wrap(
                oracle, "quadrature_bound",
                lambda a: "support.quadrature_bound"),
            "min_separation": tr.wrap(
                oracle, "min_separation",
                lambda a: "motion.min_separation_coupled"
                if a[0].is_coupled else "motion.min_separation", grid),
            "is_trace_convex": tr.wrap(
                oracle, "is_trace_convex", lambda a: "motion.is_trace_convex"),
        }

    def remove_wrappers(self):
        for attr, fn in getattr(self, "_originals", {}).items():
            setattr(self.oracle, attr, fn)

    def layer_calls(self, item):
        """Direct calls into the plan-time layers, one span each."""
        tr, g = self.tracer, self.geom
        inst = item.inst
        _, n = tr.call("geom.normalize", g.normalize, inst)
        tr.call("geom.corridor_tests", _corridor_tests, g.in_s_corridor, n)
        tr.call("support.optimal_length_bound",
                self.support.optimal_length_bound, n)
        tr.call("planner.classify_case", self.planner.classify_case, inst)

    def traced_extras(self, item):
        """Once per round: the case fixtures, and the allocation peak of one
        grid search."""
        tr = self.tracer
        for cls, fixture in self.fixtures.items():
            tr.instance = fixture.index
            tr.begin("planner.plan_fixture")
            t0 = perf_counter_ns()
            self.dm.plan(fixture.inst)
            self.samples.setdefault("plan_" + cls, []).append(
                perf_counter_ns() - t0)
            tr.end()
        search = self._originals["pivot_grid_search"]
        tracemalloc.start()
        try:
            search(item.inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.grid_peaks.append(peak / 2**20)

    def coupling_counts(self):
        """Coupled-motion counts over the first COUNT_PREFIX instances,
        planning (untimed) any the run did not reach."""
        while self.generated < COUNT_PREFIX:
            item = self._next_item()
            item.report = self.dm.plan(item.inst)
            item.coupled = self.dm.couple(item.report.chosen)
            self._after_plan(item)
        prims, windows, slivers = self.coupling
        return prims / COUNT_PREFIX, windows / COUNT_PREFIX, slivers

    # -- metrics ---------------------------------------------------------

    def _rounds(self, name):
        """The samples of one operation, split by round."""
        values, start = self.samples[name], 0
        for ends in self.round_ends:
            yield values[start:ends[name]]
            start = ends[name]

    def fastest_round(self, name, stat):
        """``stat`` of each round's samples; the least over the rounds.

        The host's speed drifts over seconds to minutes, which only ever
        adds time; the fastest round of a run is the reading least moved by
        it (as with the minimum of ``timeit`` repeats)."""
        return min(float(stat(r)) for r in self._rounds(name) if r)

    def end_to_end(self, setup_s):
        p50 = np.median
        return {
            "setup_s": (setup_s, "s"),
            "plan_p50_us": (self.fastest_round("plan", p50) / 1e3, "us"),
            # a tail, not the median or mean: on wide the median falls
            # between the motions without reversal windows and those with
            # them, and a few slow motions swing a round's mean
            "couple_p90_us": (self.fastest_round(
                "couple", lambda r: np.percentile(r, 90)) / 1e3, "us"),
            "certify_mean_ms": (self.fastest_round("certify", np.mean) / 1e6,
                                "ms"),
            "verify_mean_ms": (self.fastest_round("verify", np.mean) / 1e6,
                               "ms"),
            "certified_per_s": (1e9 / self.fastest_round("certified",
                                                         np.mean), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def whole_run(self):
        """The same operations over all samples of the run (result file
        only: the tracing overhead is taken against these)."""
        sm = self.samples
        return {"plan_p50_us": float(np.median(sm["plan"])) / 1e3,
                "couple_p90_us": float(np.percentile(sm["couple"], 90))
                / 1e3,
                "certify_mean_ms": float(np.mean(sm["certify"])) / 1e6,
                "verify_mean_ms": float(np.mean(sm["verify"])) / 1e6}

    def per_layer(self):
        tr, sm = self.tracer, self.samples

        def p50(values, scale):
            return float(np.percentile(values, 50)) / scale

        def span(name, scale):
            return p50(tr.durations(name), scale)

        prims, windows, slivers = self.coupling_counts()
        return {
            "geom.normalize_us": (span("geom.normalize", 1e3), "us"),
            "geom.corridor_tests_us": (span("geom.corridor_tests", 1e3),
                                       "us"),
            "support.optimal_length_bound_us": (
                span("support.optimal_length_bound", 1e3), "us"),
            "support.quadrature_bound_ms": (
                span("support.quadrature_bound", 1e6), "ms"),
            "planner.classify_case_us": (span("planner.classify_case", 1e3),
                                         "us"),
            "planner.plan_case1_us": (p50(sm["plan_case1"], 1e3), "us"),
            "planner.plan_case2_us": (p50(sm["plan_case2"], 1e3), "us"),
            "planner.plan_case3_us": (p50(sm["plan_case3"], 1e3), "us"),
            "motion.coupled_primitives": (prims, "count"),
            "motion.joint_windows": (windows, "count"),
            "motion.sliver_pieces": (slivers, "count"),
            "motion.min_separation_us": (span("motion.min_separation", 1e3),
                                         "us"),
            "motion.min_separation_coupled_us": (
                span("motion.min_separation_coupled", 1e3), "us"),
            "motion.is_trace_convex_us": (span("motion.is_trace_convex", 1e3),
                                          "us"),
            "motion.placement_angle_profile_us": (
                span("motion.placement_angle_profile", 1e3), "us"),
            "oracle.pivot_grid_search_ms": (
                span("oracle.pivot_grid_search", 1e6), "ms"),
            "oracle.pivot_grid_search_peak_mb": (
                float(np.median(self.grid_peaks)), "MB"),
            "oracle.certify_ms": (span("oracle.certify", 1e6), "ms"),
            "cli.plan_doc_ms": (span("cli.plan_doc", 1e6), "ms"),
            "cli.verify_ms": (span("cli.verify", 1e6), "ms"),
            "cli.plan_doc_bytes": (float(np.mean(self.doc_bytes)), "bytes"),
        }


def _corridor_tests(in_s_corridor, n):
    """The four corridor memberships of the case table."""
    eps = n.eps
    return (in_s_corridor(n.a0, n.b0, n.b1, n.s, eps),
            in_s_corridor(n.a1, n.b0, n.b1, n.s, eps),
            in_s_corridor(n.b0, n.a0, n.a1, n.s, eps),
            in_s_corridor(n.b1, n.a0, n.a1, n.s, eps))


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(corpora.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0.0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    dm = import_program()
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        bench = Bench(dm, args.workload, args.seed, workdir, bool(args.trace))
        bench.warm_up()
        setup_s = time.perf_counter() - _SCRIPT_START
        if args.trace:
            bench.install_wrappers()
        try:
            bench.run(args.seconds)
        finally:
            bench.remove_wrappers()
        with contextlib.redirect_stdout(io.StringIO()):
            checks = selftest.run(dm.cli.main, workdir)
        selftest_ok = selftest.passed(checks)
        metrics = (bench.per_layer() if args.trace
                   else bench.end_to_end(setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not bench.faults and selftest_ok
    result = {"correct": correct, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed,
                  measured_s=bench.measured_s, instances=bench.generated,
                  rounds=len(bench.round_ends), whole_run=bench.whole_run(),
                  case_histogram=dict(sorted(bench.cases.items())),
                  samples={k: len(v) for k, v in bench.samples.items()},
                  gate={"faults": bench.faults[:20],
                        "fault_count": len(bench.faults),
                        "worst_length_residual": bench.residual,
                        "straight_checked": bench.straight_checked,
                        "verify_rejected": [
                            item.index for item in bench.verify_set
                            if item.verified is False],
                        "selftest": checks})
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    if args.trace:
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for row in bench.tracer.spans:
                fh.write(json.dumps(row) + "\n")
    for index, fault in bench.faults[:10]:
        print(f"gate: instance {index}: {fault}", file=sys.stderr)
    if not selftest_ok:
        print(f"gate self-test failed: {checks}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
