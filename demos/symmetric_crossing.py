"""Walk through the planner on a symmetric crossing.

Two unit-separation discs must swap ends of a corridor: robot A slides
from (1, 0.4) to (3, 0.4) while robot B slides from (0, 0) to (4, 0).
Going straight would drive the centres closer than the separation s = 1,
so someone has to yield.  The planner parks A on a pivot point, routes B
underneath along a tangent-arc-tangent detour around the parked disc,
then lets A finish.  By symmetry the pivot must sit on the perpendicular
bisector x = 2, which makes this a nice instance to sanity-check by eye.

Run with:  python3 demos/symmetric_crossing.py [--svg out.svg]
"""

import argparse
import math

from discmotion import (Instance, Placement, Point, certify, evaluator_for,
                        normalize, plan, quadrature_bound, swept_interval)


def build_instance() -> Instance:
    start = Placement(a=Point(1.0, 0.4), b=Point(0.0, 0.0))
    goal = Placement(a=Point(3.0, 0.4), b=Point(4.0, 0.0))
    return Instance(s=1.0, p0=start, p1=goal)


def describe(report) -> None:
    print(f"case           {report.case}")
    print(f"zone           {report.zone}")
    print(f"forced cw      {report.forced_clockwise}")
    ccw, cw, chosen = report.lengths
    print(f"ccw length     {ccw}")
    print(f"cw length      {cw}")
    print(f"chosen length  {chosen:.12f}  ({report.chosen.orientation})")
    print(f"lower bound    {report.bound.min:.12f}")
    for name, pt in report.trace.points:
        print(f"trace point    {name:<14} ({pt.x:.6f}, {pt.y:.6f})")


def show_schedule(motion) -> None:
    print("schedule (who moves, which primitives):")
    for i, ph in enumerate(motion.schedule):
        prims = (motion.traj_a if ph.robot == "A" else motion.traj_b)
        legs = prims.primitives[ph.start:ph.stop]
        kinds = ", ".join(type(p).__name__ for p in legs)
        length = sum(p.length for p in legs)
        print(f"  phase {i}: robot {ph.robot} moves {length:.6f} [{kinds}]")


def cross_check(inst: Instance, report) -> None:
    # Independent check of the closed-form bound: integrate the support
    # profile of the two displacement hulls over the binding sweep.
    frame, norm = normalize(inst)
    ev = evaluator_for(norm)
    fwd = swept_interval(norm)
    interval = fwd if report.bound.chosen == "ccw" else fwd.reversed_sweep()
    quad = quadrature_bound(ev, inst.s, interval)
    print(f"quadrature     {quad:.12f}  "
          f"(|closed form - quadrature| = {abs(report.bound.min - quad):.2e})")
    cert = certify(inst, report)
    print(f"certificate    {'PASS' if cert.passed else 'FAIL'}")
    for name, ok, residual in cert.checks:
        print(f"  {name:<20} {'ok' if ok else 'FAIL'}  residual={residual:+.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--svg", help="write the planned scene to this file")
    args = ap.parse_args()

    inst = build_instance()
    print(f"separation s = {inst.s}, "
          f"start gap = {math.dist(inst.p0.a, inst.p0.b):.4f}, "
          f"goal gap = {math.dist(inst.p1.a, inst.p1.b):.4f}")

    report = plan(inst)
    describe(report)
    show_schedule(report.chosen)
    cross_check(inst, report)

    pivot = dict(report.trace.points).get("pivot")
    if pivot is not None:
        print(f"pivot sits {abs(pivot.x - 2.0):.2e} off the bisector x = 2")

    if args.svg:
        from discmotion.cli import main as cli_main
        import json
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            json.dump({"s": inst.s,
                       "A0": [inst.p0.a.x, inst.p0.a.y],
                       "B0": [inst.p0.b.x, inst.p0.b.y],
                       "A1": [inst.p1.a.x, inst.p1.a.y],
                       "B1": [inst.p1.b.x, inst.p1.b.y]}, fh)
            path = fh.name
        cli_main(["plan", path, "--svg", args.svg, "--out", "/dev/null"])
        print(f"scene written to {args.svg}")


if __name__ == "__main__":
    main()
