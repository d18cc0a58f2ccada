"""Independent correctness gate for planner output.

Nothing here imports the program.  Two instruments:

* ``support_lengths`` evaluates the paper's support integral with a plain
  periodic trapezoid rule on a fixed angle grid, for both sweep
  orientations.  The program evaluates the same integral in closed form
  (and twins it with adaptive Simpson); this code shares neither.
* ``document_faults`` reads a plan document (the JSON that
  ``discmotion plan`` writes, or the same shape built from in-memory
  motions by ``motion_document``) with its own geometry and checks
  endpoints, continuity, schedule coverage, reported length, sampled
  separation, the primitive budget of decoupled plans, and the monotone
  placement angle of coupled plans.

The coupled primitive budget and trace convexity are left to
``discmotion verify``.
"""

from __future__ import annotations

import math

import numpy as np

from corpora import clearly_straight

TWO_PI = 2.0 * math.pi

# Trapezoid nodes on [0, 2pi).  The integrand is continuous and periodic with
# a handful of kinks, so the error falls as the square of the spacing; 2^14
# nodes keep it near 2e-8 relative, well inside the 1e-6 tolerance.
GRID = 1 << 14
_THETA = np.arange(GRID) * (TWO_PI / GRID)
_COS = np.cos(_THETA)
_SIN = np.sin(_THETA)

LENGTH_RTOL = 1e-6       # planned length against the support integral
STRAIGHT_RTOL = 1e-12    # straight plans against |A0A1| + |B0B1|
SEPARATION_TOL = 1e-7    # sampled separation may fall this far below s
MONOTONE_TOL = 1e-9      # rad a coupled placement angle may step back
COUPLED_RTOL = 1e-9      # coupled length against the decoupled one
DECOUPLED_BUDGET = 6     # primitives per robot
SAMPLES_PER_ITEM = 64    # separation / angle samples per schedule entry


def _interval_sum(values, start: float, sweep: float) -> float:
    """Sum of values at the grid angles in the ccw arc [start, start+sweep]."""
    n = values.size
    step = TWO_PI / n
    j0 = math.ceil((start % TWO_PI) / step)
    j1 = math.floor((start % TWO_PI + sweep) / step)
    if j1 < j0:
        return 0.0
    if j1 < n:
        return float(values[j0:j1 + 1].sum())
    return float(values[j0:].sum() + values[:j1 - n + 1].sum())


def support_lengths(inst):
    """(ccw, cw) shortest lengths from the support integral.

    h(t) is the support of segment A0A1 in direction t plus that of B0B1 in
    direction t + pi.  Over the placement angles swept by the orientation
    the integrand is max(h, s), elsewhere h; both chords are subtracted.
    """
    s, a0, b0, a1, b1 = inst
    h = (np.maximum(a0[0] * _COS + a0[1] * _SIN, a1[0] * _COS + a1[1] * _SIN)
         - np.minimum(b0[0] * _COS + b0[1] * _SIN,
                      b1[0] * _COS + b1[1] * _SIN))
    lift = np.maximum(s - h, 0.0)
    phi0 = math.atan2(a0[1] - b0[1], a0[0] - b0[0])
    phi1 = math.atan2(a1[1] - b1[1], a1[0] - b1[0])
    step = TWO_PI / GRID
    base = float(h.sum()) * step - math.dist(a0, a1) - math.dist(b0, b1)
    return (base + _interval_sum(lift, phi0, (phi1 - phi0) % TWO_PI) * step,
            base + _interval_sum(lift, phi1, (phi0 - phi1) % TWO_PI) * step)


def length_faults(inst, length: float):
    """Faults of a planned length, and its relative residual against the
    support integral."""
    s, a0, b0, a1, b1 = inst
    reference = min(support_lengths(inst))
    residual = abs(length - reference) / max(reference, s)
    faults = []
    if not residual <= LENGTH_RTOL:
        faults.append(f"length {length!r} misses the support integral "
                      f"{reference!r} (relative {residual:.2e})")
    chords = math.dist(a0, a1) + math.dist(b0, b1)
    if length < chords - 1e-12 * (1.0 + chords):
        faults.append(f"length {length!r} below |A0A1|+|B0B1| = {chords!r}")
    if clearly_straight(inst) and not (
            abs(length - chords) <= STRAIGHT_RTOL * chords):
        faults.append(f"straight instance planned at {length!r}, "
                      f"not {chords!r}")
    return faults, residual


# ---------------------------------------------------------------------------
# plan documents


def _pt(p):
    return [float(p[0]), float(p[1])]


def motion_document(inst, motion) -> dict:
    """The plan-document fields the reader needs, from an in-memory motion
    (segments, arcs, phases or joint items, read through their public
    attributes)."""
    s, a0, b0, a1, b1 = inst

    def prim(p):
        if p.kind == "segment":
            return {"kind": "segment", "from": _pt(p.start),
                    "to": _pt(p.end)}
        return {"kind": "arc", "center": _pt(p.center), "radius": p.radius,
                "startAngle": p.start_angle, "endAngle": p.end_angle,
                "direction": p.direction}

    schedule = []
    for it in motion.schedule:
        if hasattr(it, "robot"):
            schedule.append({"robot": it.robot, "start": it.start,
                             "stop": it.stop})
        else:
            schedule.append({"aFrom": it.a_lo, "aTo": it.a_hi,
                             "bFrom": it.b_lo, "bTo": it.b_hi})
    return {"instance": {"s": s, "A0": _pt(a0), "B0": _pt(b0),
                         "A1": _pt(a1), "B1": _pt(b1)},
            "lengths": {"chosen": motion.length},
            "trajectories": {"A": [prim(p) for p in motion.traj_a.primitives],
                             "B": [prim(p) for p in motion.traj_b.primitives]},
            "schedule": schedule}


def document_instance(doc):
    i = doc["instance"]
    return (float(i["s"]), tuple(i["A0"]), tuple(i["B0"]), tuple(i["A1"]),
            tuple(i["B1"]))


class _Path:
    """One robot's primitives, evaluated by arc length."""

    def __init__(self, prims, rest):
        self.rest = rest
        n = len(prims)
        self.kind_arc = np.zeros(n, dtype=bool)
        self.p0 = np.zeros((n, 2))
        self.p1 = np.zeros((n, 2))
        self.center = np.zeros((n, 2))
        self.radius = np.zeros(n)
        self.angle0 = np.zeros(n)
        self.turn = np.zeros(n)       # signed sweep of arcs
        lengths = np.zeros(n)
        for i, d in enumerate(prims):
            if d["kind"] == "segment":
                self.p0[i], self.p1[i] = d["from"], d["to"]
                lengths[i] = math.dist(d["from"], d["to"])
            elif d["kind"] == "arc":
                a, b, r = d["startAngle"], d["endAngle"], d["radius"]
                ccw = d["direction"] == "ccw"
                sweep = ((b - a) if ccw else (a - b)) % TWO_PI
                if sweep > TWO_PI - 1e-9:   # a numerically full turn is empty
                    sweep = 0.0
                c = d["center"]
                self.kind_arc[i] = True
                self.center[i], self.radius[i] = c, r
                self.angle0[i] = a
                self.turn[i] = sweep if ccw else -sweep
                self.p0[i] = (c[0] + r * math.cos(a), c[1] + r * math.sin(a))
                self.p1[i] = (c[0] + r * math.cos(a + self.turn[i]),
                              c[1] + r * math.sin(a + self.turn[i]))
                lengths[i] = r * sweep
            else:
                raise ValueError(f"unknown primitive kind {d['kind']!r}")
        self.cum = np.concatenate(([0.0], np.cumsum(lengths)))
        self.lengths = lengths

    @property
    def length(self) -> float:
        return float(self.cum[-1])

    def at(self, arclen: np.ndarray) -> np.ndarray:
        if not len(self.lengths):
            return np.tile(np.asarray(self.rest, dtype=float),
                           (arclen.size, 1))
        s = np.clip(arclen, 0.0, self.cum[-1])
        i = np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0,
                    len(self.lengths) - 1)
        span = self.lengths[i]
        u = np.where(span > 0.0, (s - self.cum[i]) / np.where(
            span > 0.0, span, 1.0), 0.0)[:, None]
        seg = self.p0[i] + u * (self.p1[i] - self.p0[i])
        ang = self.angle0[i] + self.turn[i] * u[:, 0]
        arc = self.center[i] + self.radius[i][:, None] * np.stack(
            (np.cos(ang), np.sin(ang)), axis=1)
        return np.where(self.kind_arc[i][:, None], arc, seg)


def _endpoint_faults(name, path, start, end, tol):
    faults = []
    if not len(path.lengths):
        if math.dist(start, end) > tol:
            faults.append(f"{name} has no primitives but must move")
        return faults
    if math.dist(path.p0[0], start) > tol:
        faults.append(f"{name} does not start at its start placement")
    for i in range(1, len(path.lengths)):
        if math.dist(path.p1[i - 1], path.p0[i]) > tol:
            faults.append(f"{name} is discontinuous before primitive {i}")
    if math.dist(path.p1[-1], end) > tol:
        faults.append(f"{name} does not end at its goal placement")
    return faults


def _schedule_items(schedule, paths, faults):
    """Schedule as (a_lo, a_hi, b_lo, b_hi) arc-length items, with faults
    for entries that do not cover both trajectories in order."""
    path_a, path_b = paths
    decoupled = all("robot" in it for it in schedule)
    items = []
    if decoupled:
        nxt = {"A": 0, "B": 0}
        count = {"A": len(path_a.lengths), "B": len(path_b.lengths)}
        for it in schedule:
            r, lo, hi = it["robot"], it["start"], it["stop"]
            if r not in nxt or lo != nxt[r] or not lo <= hi <= count[r]:
                faults.append(f"phase {it} does not continue robot {r}")
                return decoupled, items
            nxt[r] = hi
            a = (path_a.cum[nxt["A"]],) * 2
            b = (path_b.cum[nxt["B"]],) * 2
            if r == "A":
                a = (path_a.cum[lo], path_a.cum[hi])
            else:
                b = (path_b.cum[lo], path_b.cum[hi])
            items.append((a[0], a[1], b[0], b[1]))
        for r in "AB":
            if nxt[r] != count[r]:
                faults.append(f"schedule stops robot {r} at primitive "
                              f"{nxt[r]} of {count[r]}")
        return decoupled, items
    if not all({"aFrom", "aTo", "bFrom", "bTo"} <= set(it)
               for it in schedule):
        faults.append("schedule mixes phases and joint items")
        return decoupled, items
    tol_a = 1e-9 * (1.0 + path_a.length)
    tol_b = 1e-9 * (1.0 + path_b.length)
    at_a = at_b = 0.0
    for it in schedule:
        a0, a1, b0, b1 = it["aFrom"], it["aTo"], it["bFrom"], it["bTo"]
        if (abs(a0 - at_a) > tol_a or abs(b0 - at_b) > tol_b
                or a1 < a0 - tol_a or b1 < b0 - tol_b):
            faults.append(f"joint item {it} does not continue the schedule")
            return decoupled, items
        items.append((a0, a1, b0, b1))
        at_a, at_b = a1, b1
    if abs(at_a - path_a.length) > tol_a or abs(at_b - path_b.length) > tol_b:
        faults.append("joint items do not cover both trajectories")
    return decoupled, items


def document_faults(doc, decoupled_length=None):
    """Everything wrong with a plan document, as a list of messages.

    ``decoupled_length``: for a coupled document, the length of the
    decoupled plan it re-times."""
    s, a0, b0, a1, b1 = document_instance(doc)
    # The planner snaps points within its predicate tolerance (1e-9 times
    # the instance diameter) onto circles, so a trajectory may start or end
    # a few 1e-9 away from its placement.
    scale = 1.0 + max(abs(c) for p in (a0, b0, a1, b1) for c in p)
    tol = 1e-8 * scale
    faults = []
    try:
        path_a = _Path(doc["trajectories"]["A"], a0)
        path_b = _Path(doc["trajectories"]["B"], b0)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable trajectories: {exc!r}"]
    faults += _endpoint_faults("trajectory A", path_a, a0, a1, tol)
    faults += _endpoint_faults("trajectory B", path_b, b0, b1, tol)
    total = path_a.length + path_b.length
    reported = doc["lengths"]["chosen"]
    if not abs(total - reported) <= 1e-9 * (1.0 + total):
        faults.append(f"primitives sum to {total!r}, document says "
                      f"{reported!r}")
    decoupled, items = _schedule_items(doc["schedule"], (path_a, path_b),
                                       faults)
    if faults:
        return faults
    if decoupled and max(len(path_a.lengths),
                         len(path_b.lengths)) > DECOUPLED_BUDGET:
        faults.append("more than six primitives on one robot")
    if not items:
        return faults
    t = np.linspace(0.0, 1.0, SAMPLES_PER_ITEM)
    ia = np.concatenate([lo + t * (hi - lo) for lo, hi, _, _ in items])
    ib = np.concatenate([lo + t * (hi - lo) for _, _, lo, hi in items])
    pa, pb = path_a.at(ia), path_b.at(ib)
    rel = pa - pb
    sep = float(np.hypot(rel[:, 0], rel[:, 1]).min())
    if sep < s - SEPARATION_TOL:
        faults.append(f"sampled separation {sep!r} below s = {s!r}")
    if not decoupled:
        steps = np.diff(np.unwrap(np.arctan2(rel[:, 1], rel[:, 0])))
        if not (steps.min() >= -MONOTONE_TOL
                or steps.max() <= MONOTONE_TOL):
            faults.append("coupled placement angle is not monotone")
        if decoupled_length is not None and not (
                abs(total - decoupled_length)
                <= COUPLED_RTOL * (1.0 + decoupled_length)):
            faults.append(f"coupled length {total!r} differs from the "
                          f"decoupled {decoupled_length!r}")
    return faults


def plan_faults(doc):
    """Support-integral and document checks of one decoupled plan
    document."""
    faults, _ = length_faults(document_instance(doc),
                              doc["lengths"]["chosen"])
    return faults + document_faults(doc)
