"""Command-line front end: plan, verify, fuzz, and render.

Exit codes: 0 success, 1 for I/O and parse errors and rejected options,
2 for certification failures (including a requested orientation that
cannot be certified and a grid oracle that finds no feasible pivot).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import xml.etree.ElementTree as ET
from types import SimpleNamespace

from .errors import (ConstructionFailure, DiscMotionError,
                     OptimalityCheckFailure, OracleExhausted)
from .geom import Instance, Placement, Point, dist, normalize
from .motion import (Arc, JointItem, Motion, Phase, Segment, Trajectory,
                     _is_straight, couple, sample)
from .oracle import GridSpec, certify, pivot_grid_search
from .planner import classify_case, plan
from .support import optimal_length_bound

CHECK_NAMES = ("feasibility", "convexity", "boundAgreement",
               "quadratureAgreement", "oracleUpperBound", "primitiveBudget")


class SchemaError(ValueError):
    """Structurally invalid instance or plan document."""


# ---------------------------------------------------------------------------
# JSON documents


def _as_point(v, name: str) -> Point:
    ok = (isinstance(v, (list, tuple)) and len(v) == 2
          and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                  for c in v))
    if not ok:
        raise SchemaError(f"field {name!r} must be a two-number array")
    return Point(float(v[0]), float(v[1]))


def parse_instance(data) -> Instance:
    if not isinstance(data, dict):
        raise SchemaError("instance document must be a JSON object")
    required = {"s", "A0", "B0", "A1", "B1"}
    unknown = sorted(set(data) - required)
    if unknown:
        raise SchemaError(f"unknown field {unknown[0]!r}")
    missing = sorted(required - set(data))
    if missing:
        raise SchemaError(f"missing field {missing[0]!r}")
    s = data["s"]
    if isinstance(s, bool) or not isinstance(s, (int, float)):
        raise SchemaError("field 's' must be a number")
    try:
        return Instance(float(s),
                        Placement(_as_point(data["A0"], "A0"),
                                  _as_point(data["B0"], "B0")),
                        Placement(_as_point(data["A1"], "A1"),
                                  _as_point(data["B1"], "B1")))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _pt(p: Point):
    return [p.x, p.y]


def _instance_doc(inst: Instance):
    return {"s": inst.s, "A0": _pt(inst.a0), "B0": _pt(inst.b0),
            "A1": _pt(inst.a1), "B1": _pt(inst.b1)}


def _prim_doc(pr):
    if isinstance(pr, Segment):
        return {"kind": "segment", "from": _pt(pr.start), "to": _pt(pr.end)}
    return {"kind": "arc", "center": _pt(pr.center), "radius": pr.radius,
            "startAngle": pr.start_angle, "endAngle": pr.end_angle,
            "direction": pr.direction}


def _prim_from_doc(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise SchemaError("primitive must be an object with a 'kind'")
    if d["kind"] == "segment":
        return Segment(_as_point(d.get("from"), "from"),
                       _as_point(d.get("to"), "to"))
    if d["kind"] == "arc":
        if d.get("direction") not in ("ccw", "cw"):
            raise SchemaError("arc direction must be 'ccw' or 'cw'")
        try:
            return Arc(_as_point(d.get("center"), "center"),
                       float(d["radius"]), float(d["startAngle"]),
                       float(d["endAngle"]), d["direction"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed arc: {exc}") from exc
    raise SchemaError(f"unknown primitive kind {d['kind']!r}")


def _schedule_doc(m: Motion):
    if m.is_coupled:
        return [{"aFrom": it.a_lo, "aTo": it.a_hi,
                 "bFrom": it.b_lo, "bTo": it.b_hi} for it in m.schedule]
    return [{"robot": ph.robot, "start": ph.start, "stop": ph.stop}
            for ph in m.schedule]


def _schedule_from_doc(items):
    out = []
    for it in items:
        if not isinstance(it, dict):
            raise SchemaError("schedule entries must be objects")
        if "robot" in it and it["robot"] not in ("A", "B"):
            raise SchemaError("phase robot must be 'A' or 'B'")
        try:
            if "robot" in it:
                out.append(Phase(it["robot"], int(it["start"]),
                                 int(it["stop"])))
            else:
                out.append(JointItem(float(it["aFrom"]), float(it["aTo"]),
                                     float(it["bFrom"]), float(it["bTo"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed schedule item: {exc}") from exc
    return tuple(out)


def _check_motion(m: Motion, inst: Instance) -> None:
    """Reject a motion whose trajectories do not join the instance's
    placements, or whose schedule does not cover them in order."""
    scale = 1.0 + max(abs(c) for p in (inst.a0, inst.b0, inst.a1, inst.b1)
                      for c in p)
    for name, tr, p0, p1 in (("A", m.traj_a, inst.a0, inst.a1),
                             ("B", m.traj_b, inst.b0, inst.b1)):
        ends = ((tr.primitives[0].start, tr.primitives[-1].end)
                if tr.primitives else (p0, p0))
        if max(dist(ends[0], p0), dist(ends[1], p1)) > 1e-8 * scale:
            raise SchemaError(f"trajectory {name} does not join its start "
                              f"and goal placements")
    if len({type(it) for it in m.schedule}) > 1:
        raise SchemaError("schedule mixes phases and joint items")
    if not m.is_coupled:
        nxt = {"A": 0, "B": 0}
        for ph in m.schedule:
            if ph.start != nxt[ph.robot] or ph.stop < ph.start:
                raise SchemaError(f"phase {tuple(ph)} does not continue "
                                  f"robot {ph.robot}")
            nxt[ph.robot] = ph.stop
        if (nxt["A"], nxt["B"]) != (len(m.traj_a.primitives),
                                    len(m.traj_b.primitives)):
            raise SchemaError("phases do not end at each robot's last "
                              "primitive")
        return
    len_a, len_b = m.traj_a.length, m.traj_b.length
    tol_a, tol_b = 1e-9 * (1.0 + len_a), 1e-9 * (1.0 + len_b)
    tol = 1e-9 * (1.0 + m.length)
    at_a = at_b = 0.0
    for it in m.schedule:
        if (abs(it.a_lo - at_a) > tol_a or abs(it.b_lo - at_b) > tol_b
                or it.a_hi < it.a_lo or it.b_hi < it.b_lo):
            raise SchemaError(f"joint item {tuple(it)} does not continue "
                              f"the schedule")
        if it.a_hi > it.a_lo and it.b_hi > it.b_lo and not (
                _is_straight(m.traj_a, it.a_lo, it.a_hi, tol)
                and _is_straight(m.traj_b, it.b_lo, it.b_hi, tol)):
            raise SchemaError(f"joint item {tuple(it)} moves a robot along "
                              f"a path that is not straight")
        at_a, at_b = it.a_hi, it.b_hi
    if abs(at_a - len_a) > tol_a or abs(at_b - len_b) > tol_b:
        raise SchemaError("joint items do not end at both trajectory "
                          "lengths")


def _motion_doc(m: Motion):
    return {"orientation": m.orientation,
            "trajectories": {
                "A": [_prim_doc(p) for p in m.traj_a.primitives],
                "B": [_prim_doc(p) for p in m.traj_b.primitives]},
            "schedule": _schedule_doc(m)}


def _motion_from_doc(doc, inst: Instance) -> Motion:
    for key in ("orientation", "trajectories", "schedule"):
        if key not in doc:
            raise SchemaError(f"plan document missing {key!r}")
    if doc["orientation"] not in ("ccw", "cw", "straight"):
        raise SchemaError("orientation must be 'ccw', 'cw' or 'straight'")
    traj = doc["trajectories"]
    try:
        prims_a = tuple(_prim_from_doc(x) for x in traj["A"])
        prims_b = tuple(_prim_from_doc(x) for x in traj["B"])
    except KeyError as exc:
        raise SchemaError(f"trajectories must map A and B: {exc}") from exc
    try:
        ta, tb = Trajectory(prims_a), Trajectory(prims_b)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    m = Motion(ta, tb, _schedule_from_doc(doc["schedule"]),
               doc["orientation"], inst.p0, inst.p1)
    _check_motion(m, inst)
    return m


def _zone_doc(zone):
    if zone is None:
        return None
    return {"zone": zone.zone, "circles": zone.circles,
            "subcase": zone.subcase}


def _plan_doc(inst, report, motion, bound_target, certified, note=None):
    doc = {"instance": _instance_doc(inst),
           "case": report.case,
           "zone": _zone_doc(report.zone),
           "forcedClockwise": report.forced_clockwise,
           "certified": certified,
           "lengths": {"ccw": report.lengths[0], "cw": report.lengths[1],
                       "chosen": motion.length, "bound": bound_target},
           "constructionPoints": {k: _pt(v) for k, v in report.trace.points},
           "arcSpans": {k: [sp[0], sp[1]] for k, sp in report.trace.spans}}
    doc.update(_motion_doc(motion))
    if note:
        doc["note"] = note
    return doc


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_json(doc, path):
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# SVG rendering


def _fmt(x: float) -> str:
    return f"{x:.8g}"


def _path_d(tr: Trajectory) -> str:
    if not tr.primitives:
        return ""
    first = tr.primitives[0].start
    parts = [f"M {_fmt(first.x)} {_fmt(-first.y)}"]
    for pr in tr.primitives:
        if isinstance(pr, Segment):
            parts.append(f"L {_fmt(pr.end.x)} {_fmt(-pr.end.y)}")
        else:
            # y axis is negated for screen coordinates, flipping arc
            # orientation: ccw math arcs take SVG sweep flag 0
            large = 1 if pr.sweep > math.pi else 0
            sweep = 0 if pr.direction == "ccw" else 1
            e = pr.end
            parts.append(f"A {_fmt(pr.radius)} {_fmt(pr.radius)} 0 "
                         f"{large} {sweep} {_fmt(e.x)} {_fmt(-e.y)}")
    return " ".join(parts)


def _write_svg(path, inst: Instance, motion: Motion, points, frames: int):
    s = inst.s
    xs, ys = [], []

    def add(p: Point, pad: float = 0.0):
        xs.extend((p.x - pad, p.x + pad))
        ys.extend((p.y - pad, p.y + pad))

    for c in (inst.b0, inst.b1):
        add(c, s)
    for c in (inst.a0, inst.a1):
        add(c, 0.5 * s)
    for tr in (motion.traj_a, motion.traj_b):
        for pr in tr.primitives:
            if isinstance(pr, Segment):
                add(pr.start)
                add(pr.end)
            else:
                add(pr.center, pr.radius)
    for name, p in points.items():
        add(p, s if name == "pivot" else 0.0)
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.1 * span
    view = (f"{_fmt(xmin - pad)} {_fmt(-(ymax + pad))} "
            f"{_fmt(xmax - xmin + 2 * pad)} {_fmt(ymax - ymin + 2 * pad)}")
    root = ET.Element("svg", {"xmlns": "http://www.w3.org/2000/svg",
                              "viewBox": view})
    sw = 0.008 * (span + 2 * pad)

    def circle(c: Point, r: float, attrs):
        base = {"cx": _fmt(c.x), "cy": _fmt(-c.y), "r": _fmt(r),
                "fill": "none"}
        base.update(attrs)
        ET.SubElement(root, "circle", base)

    dashed = {"stroke": "#999999", "stroke-width": _fmt(0.5 * sw),
              "stroke-dasharray": f"{_fmt(2.5 * sw)} {_fmt(2.5 * sw)}"}
    circle(inst.b0, s, dashed)
    circle(inst.b1, s, dashed)
    if "pivot" in points:
        circle(points["pivot"], s, dashed)
    for tr, color in ((motion.traj_a, "#c0392b"), (motion.traj_b, "#2980b9")):
        d = _path_d(tr)
        if d:
            ET.SubElement(root, "path", {"d": d, "fill": "none",
                                         "stroke": color,
                                         "stroke-width": _fmt(sw),
                                         "stroke-linecap": "round"})
    if frames > 0:
        ts = [0.0] if frames == 1 else [i / (frames - 1)
                                        for i in range(frames)]
        for t in ts:
            pl = sample(motion, t)
            for c, color in ((pl.a, "#c0392b"), (pl.b, "#2980b9")):
                circle(c, 0.5 * s, {"stroke": color, "opacity": "0.45",
                                    "stroke-width": _fmt(0.4 * sw)})
    font = {"font-size": _fmt(3.5 * sw), "font-family": "sans-serif",
            "fill": "#111111"}
    labeled = [("A0", inst.a0), ("A1", inst.a1), ("B0", inst.b0),
               ("B1", inst.b1)]
    labeled += [(k, v) for k, v in points.items()]
    for name, p in labeled:
        circle(p, 0.45 * sw, {"fill": "#111111"})
        t = ET.SubElement(root, "text",
                          {"x": _fmt(p.x + sw), "y": _fmt(-(p.y + sw)),
                           **font})
        t.text = name
    ET.ElementTree(root).write(path, encoding="utf-8",
                               xml_declaration=True)


# ---------------------------------------------------------------------------
# commands


def cmd_plan(args) -> int:
    inst = parse_instance(_load_json(args.input))
    try:
        report = plan(inst)
    except (ConstructionFailure, OptimalityCheckFailure) as exc:
        note = (f"planner failed ({exc}); grid-search fallback, "
                f"not optimality-certified")
        result = pivot_grid_search(inst)
        bound = optimal_length_bound(inst)
        doc = {"instance": _instance_doc(inst),
               "case": classify_case(inst), "zone": None,
               "forcedClockwise": False, "certified": False,
               "lengths": {"ccw": None, "cw": None,
                           "chosen": result.motion.length,
                           "bound": bound.min},
               "constructionPoints": {"pivot": _pt(result.best_pivot)},
               "arcSpans": {}, "note": note}
        doc.update(_motion_doc(result.motion))
        _emit_json(doc, args.out)
        if args.svg:
            _write_svg(args.svg, inst, result.motion,
                       {"pivot": result.best_pivot}, 5)
        print(f"warning: {note}", file=sys.stderr)
        return 2

    motion, bound_target = report.chosen, report.bound.min
    if args.orientation != "auto":
        wanted = (report.ccw_motion if args.orientation == "ccw"
                  else report.cw_motion)
        target = (report.bound.ccw if args.orientation == "ccw"
                  else report.bound.cw)
        straight_ok = (report.case in ("Case1a", "Case1b") and
                       abs(report.chosen.length - target)
                       <= 1e-6 * max(1.0, target))
        if wanted is not None:
            motion, bound_target = wanted, target
        elif straight_ok:
            # the straight motion already meets the requested orientation's
            # bound, so it is a shortest such motion
            bound_target = target
        else:
            doc = {"instance": _instance_doc(inst), "certified": False,
                   "case": report.case,
                   "forcedClockwise": report.forced_clockwise,
                   "error": (f"no net-{args.orientation} motion is "
                             f"certifiable for this instance"),
                   "lengths": {"bound": target}}
            _emit_json(doc, args.out)
            print(f"error: {doc['error']}", file=sys.stderr)
            return 2
    if args.couple:
        motion = couple(motion)
    doc = _plan_doc(inst, report, motion, bound_target, True)
    _emit_json(doc, args.out)
    if args.svg:
        pts = {k: p for k, p in report.trace.points}
        _write_svg(args.svg, inst, motion, pts, 5)
    return 0


def cmd_verify(args) -> int:
    if not (math.isfinite(args.quad_tol) and args.quad_tol >= 0.0):
        print(f"error: --quad-tol: must be nonnegative and finite, "
              f"not {args.quad_tol}", file=sys.stderr)
        return 1
    doc = _load_json(args.plan)
    if not isinstance(doc, dict) or "instance" not in doc:
        raise SchemaError("plan document missing 'instance'")
    inst = parse_instance(doc["instance"])
    motion = _motion_from_doc(doc, inst)
    report = SimpleNamespace(chosen=motion, bound=optimal_length_bound(inst))
    grid = None
    if args.grid_step is not None:
        try:
            grid = GridSpec(step=args.grid_step, margin=2.0 * inst.s)
            grid.index_ranges(normalize(inst)[1])
        except ValueError as exc:
            print(f"error: --grid-step: {exc}", file=sys.stderr)
            return 1
    try:
        cert = certify(inst, report, grid=grid, quad_tol=args.quad_tol)
    except OracleExhausted as exc:
        print(f"error: grid oracle: {exc}", file=sys.stderr)
        return 2
    for name, ok, residual in cert.checks:
        print(f"{name:<20} {'PASS' if ok else 'FAIL'}  "
              f"residual={residual:+.3e}")
    print(f"certificate: {'PASS' if cert.passed else 'FAIL'}")
    return 0 if cert.passed else 2


def random_instance(rng: random.Random, s: float = 1.0, box: float = 10.0,
                    cap: int = 10000) -> Instance:
    """Uniform compatible instance in [-box, box]^2 (rejection sampling)."""

    def placement() -> Placement:
        for _ in range(cap):
            a = Point(rng.uniform(-box, box), rng.uniform(-box, box))
            b = Point(rng.uniform(-box, box), rng.uniform(-box, box))
            if dist(a, b) >= s:
                return Placement(a, b)
        raise ValueError(
            f"no compatible placement found in {cap} attempts; "
            f"the box is too small for s={s}")

    return Instance(s, placement(), placement())


_WORSE_IS_LARGER = {"boundAgreement", "quadratureAgreement",
                    "primitiveBudget"}


def cmd_fuzz(args) -> int:
    if args.n < 1:
        raise SchemaError("--n must be at least 1")
    rng = random.Random(args.seed)
    passes = {name: 0 for name in CHECK_NAMES}
    worst = {}
    cases: dict = {}
    zones: dict = {}
    failures = []
    for i in range(args.n):
        try:
            inst = random_instance(rng, s=args.s, box=args.box)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            report = plan(inst)
        except DiscMotionError as exc:
            failures.append({"index": i, "error": str(exc),
                             "instance": _instance_doc(inst)})
            continue
        cases[report.case] = cases.get(report.case, 0) + 1
        zname = str(report.zone) if report.zone is not None else "-"
        zones[zname] = zones.get(zname, 0) + 1
        cert = certify(inst, report)
        for name, ok, residual in cert.checks:
            if ok:
                passes[name] += 1
            else:
                failures.append({"index": i, "check": name,
                                 "residual": residual,
                                 "instance": _instance_doc(inst)})
            if name not in worst:
                worst[name] = residual
            elif name in _WORSE_IS_LARGER:
                worst[name] = max(worst[name], residual)
            else:
                worst[name] = min(worst[name], residual)
    summary = {"n": args.n, "seed": args.seed, "s": args.s, "box": args.box,
               "checkPasses": passes,
               "caseHistogram": dict(sorted(cases.items())),
               "zoneHistogram": dict(sorted(zones.items())),
               "worstResiduals": worst,
               "failures": failures[:20],
               "failureCount": len(failures),
               "allPassed": not failures}
    _emit_json(summary, args.report)
    return 0 if not failures else 2


def cmd_render(args) -> int:
    doc = _load_json(args.plan)
    if not isinstance(doc, dict) or "instance" not in doc:
        raise SchemaError("plan document missing 'instance'")
    inst = parse_instance(doc["instance"])
    motion = _motion_from_doc(doc, inst)
    raw = doc.get("constructionPoints", {})
    points = {k: _as_point(v, k) for k, v in raw.items()}
    _write_svg(args.svg, inst, motion, points, args.frames)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="discmotion",
        description="Exact shortest collision-free coordinated motions "
                    "for two discs in an open plane.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan an instance file")
    p.add_argument("input", help="instance JSON path")
    p.add_argument("--orientation", choices=("auto", "ccw", "cw"),
                   default="auto")
    p.add_argument("--couple", action="store_true",
                   help="emit the coupled, monotone-angle schedule")
    p.add_argument("--out", help="plan JSON output path (default stdout)")
    p.add_argument("--svg", help="also render the scene to this path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", help="re-certify a plan file")
    p.add_argument("plan", help="plan JSON path")
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--quad-tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="random instances through plan+certify")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--box", type=float, default=10.0)
    p.add_argument("--report", help="summary JSON path (default stdout)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("render", help="render a plan file to SVG")
    p.add_argument("plan", help="plan JSON path")
    p.add_argument("--svg", required=True)
    p.add_argument("--frames", type=int, default=5,
                   help="number of disc keyframes (0 for trajectories only)")
    p.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
