"""Seeded instance streams for the three workloads, and the benchmark's own
straight-line test.

An instance here is a plain tuple ``(s, a0, b0, a1, b1)`` of a radius sum
and four ``(x, y)`` pairs; the runner turns it into a ``discmotion.Instance``
only when handing it to the program.  Nothing in this module imports the
program.
"""

from __future__ import annotations

import math
import random

S = 1.0

# Box half-widths: the acceptance-suite distribution, and the tight box in
# which about a quarter of the instances need a pivot.
WIDE_BOX = 10.0
TIGHT_BOX = 1.5


def _placement(rng: random.Random, box: float, s: float):
    """Uniform pair of centres in [-box, box]^2 at least s apart."""
    while True:
        a = (rng.uniform(-box, box), rng.uniform(-box, box))
        b = (rng.uniform(-box, box), rng.uniform(-box, box))
        if math.dist(a, b) >= s:
            return a, b


def uniform_instance(rng: random.Random, box: float, s: float = S):
    a0, b0 = _placement(rng, box, s)
    a1, b1 = _placement(rng, box, s)
    return (s, a0, b0, a1, b1)


def _point_segment_distance(p, q0, q1) -> float:
    dx, dy = q1[0] - q0[0], q1[1] - q0[1]
    dd = dx * dx + dy * dy
    t = 0.0
    if dd > 0.0:
        t = ((p[0] - q0[0]) * dx + (p[1] - q0[1]) * dy) / dd
        t = min(max(t, 0.0), 1.0)
    return math.hypot(p[0] - (q0[0] + t * dx), p[1] - (q0[1] + t * dy))


def straight_clearance(inst) -> float:
    """Best clearance, over the two orders of moving one robot at a time
    along its own segment, of the parked robot from the moving one, minus s.

    Non-negative exactly when some straight decoupled motion is collision
    free; the shortest length is then |A0A1| + |B0B1|.
    """
    s, a0, b0, a1, b1 = inst
    a_first = min(_point_segment_distance(b0, a0, a1),
                  _point_segment_distance(a1, b0, b1))
    b_first = min(_point_segment_distance(a0, b0, b1),
                  _point_segment_distance(b1, a0, a1))
    return max(a_first, b_first) - s


def straight_margin(inst) -> float:
    """Clearance below which the straight test is treated as undecided."""
    s, a0, b0, a1, b1 = inst
    xs = [p[0] for p in (a0, b0, a1, b1)]
    ys = [p[1] for p in (a0, b0, a1, b1)]
    diameter = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    return 1e-6 * max(diameter, s)


def clearly_straight(inst) -> bool:
    return straight_clearance(inst) >= straight_margin(inst)


def clearly_blocked(inst) -> bool:
    return straight_clearance(inst) <= -straight_margin(inst)


def wide(rng: random.Random):
    return uniform_instance(rng, WIDE_BOX)


def tight(rng: random.Random):
    return uniform_instance(rng, TIGHT_BOX)


def pivot(rng: random.Random):
    """Tight-box instances that no straight decoupled motion solves."""
    while True:
        inst = uniform_instance(rng, TIGHT_BOX)
        if clearly_blocked(inst):
            return inst


GENERATORS = {"wide": wide, "tight": tight, "pivot": pivot}

# Fixed instances, independent of the seed: one per case class, so that the
# traced run times every class on every workload (the pivot corpus has no
# Case 1 instances).
CASE_FIXTURES = {
    "case1": (1.0, (5.0, 5.0), (0.0, 0.0), (6.0, 5.0), (10.0, 0.0)),
    "case2": (1.0, (1.0, 0.4), (0.0, 0.0), (3.0, 0.4), (4.0, 0.0)),
    "case3": (1.0, (0.553641871968495, 0.7773381998297579),
              (0.6670749441307136, -0.9435144369465622),
              (0.3902596035522228, 0.019880093191956938),
              (-0.6696417870795305, 1.0121737062316023)),
}
