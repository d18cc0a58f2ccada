"""A configuration where the counter-clockwise sweep is simply blocked.

Both robots start and finish tucked *below* the line through B's two
placements, with each A placement deep inside the other robot's
separation disc.  Any motion whose net relative sweep went
counter-clockwise would have to drag the pair through the upper
half-plane at extra cost; the planner detects this, refuses to certify a
ccw motion, and plans the clockwise one, which lands exactly on its
closed-form lower bound.

The demo shows the detection, the refusal, and an independent grid
search confirming nothing shorter exists among decoupled detours.

Run with:  python3 demos/forced_clockwise.py
"""

from discmotion import (GridSpec, Instance, Placement, Point, certify,
                        evaluator_for, forced_clockwise, normalize,
                        pivot_grid_search, plan, quadrature_bound,
                        swept_interval)


def build_instance() -> Instance:
    start = Placement(a=Point(1.6, -0.3), b=Point(0.0, 0.0))
    goal = Placement(a=Point(0.6, -0.3), b=Point(2.2, 0.0))
    return Instance(s=1.0, p0=start, p1=goal)


def main() -> None:
    inst = build_instance()
    print(f"forced_clockwise(inst) = {forced_clockwise(inst)}")

    report = plan(inst)
    print(f"case {report.case}, zone {report.zone}, "
          f"forcedClockwise={report.forced_clockwise}")
    print(f"ccw motion: {report.ccw_motion}")
    print(f"cw length:  {report.chosen.length:.12f} "
          f"(orientation {report.chosen.orientation})")

    # What would the ccw side have cost at minimum?  Integrate the
    # support profile over the ccw sweep; the result is a hard lower
    # bound on any net-ccw motion, and it exceeds the planned cw length.
    _, norm = normalize(inst)
    ev = evaluator_for(norm)
    ccw_bound = quadrature_bound(ev, inst.s, swept_interval(norm))
    print(f"ccw lower bound: {ccw_bound:.12f} "
          f"(+{ccw_bound - report.chosen.length:.6f} over the cw plan)")

    oracle = pivot_grid_search(inst, GridSpec(step=0.02, margin=2.0))
    print(f"grid oracle: best {oracle.best_length:.9f} via order "
          f"{oracle.order}, orientation {oracle.orientation}, "
          f"pivot ({oracle.best_pivot.x:.3f}, {oracle.best_pivot.y:.3f})")
    print(f"oracle gap over plan: {oracle.best_length - report.chosen.length:+.3e}"
          " (nonnegative: the lattice cannot beat the certified plan)")

    cert = certify(inst, report)
    print(f"certificate: {'PASS' if cert.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
