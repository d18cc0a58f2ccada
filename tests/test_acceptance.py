"""Acceptance gate: the eight release criteria, one test per criterion.

Each test records a single PASS/FAIL line that the conftest hook prints in
the terminal summary.  Shared corpora are session-scoped so the 10,000
instance sweep is planned once and reused.
"""

import math
import random
import time

import numpy as np
import pytest

from discmotion import (
    GridSpec,
    Instance,
    Placement,
    Point,
    classify_case,
    couple,
    evaluator_for,
    is_trace_convex,
    min_separation,
    normalize,
    pivot_grid_search,
    placement_angle_profile,
    plan,
    quadrature_bound,
    reflect_instance,
    swept_interval,
)
from discmotion.cli import random_instance
from discmotion.geom import Frame

SEED = 20260815
N_MAIN = 10_000


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(SEED)
    return [random_instance(rng) for _ in range(N_MAIN)]


@pytest.fixture(scope="session")
def planned(corpus):
    """Plan the whole corpus once; keep the wall-clock cost."""
    start = time.perf_counter()
    reports = [plan(inst) for inst in corpus]
    elapsed = time.perf_counter() - start
    return reports, elapsed


def chosen_interval(inst: Instance, chosen: str):
    iv = swept_interval(inst)
    return iv if chosen == "ccw" else iv.complement()


def test_criterion_1_bound_construction_equality(corpus, planned,
                                                 acceptance_record):
    reports, plan_seconds = planned
    bad = []
    start = time.perf_counter()
    for inst, rep in zip(corpus, reports):
        if abs(rep.chosen.length - rep.bound.min) > 1e-6:
            bad.append((inst, "bound mismatch"))
            continue
        ev = evaluator_for(inst)
        iv = chosen_interval(inst, rep.bound.chosen)
        q = quadrature_bound(ev, inst.s, iv)
        if abs(rep.bound.min - q) > 1e-9:
            bad.append((inst, "quadrature mismatch"))
    check_seconds = time.perf_counter() - start
    total = plan_seconds + check_seconds
    ok = not bad and total < 60.0
    acceptance_record(
        1, "bound equality on 10,000 instances", ok,
        f"{len(bad)} mismatches, {total:.1f}s")
    assert not bad, bad[:3]
    assert total < 60.0, f"corpus took {total:.1f}s"


def test_criterion_2_feasibility_and_structure(corpus, planned,
                                               acceptance_record):
    reports, _ = planned
    bad = []
    for inst, rep in zip(corpus, reports):
        motions = {id(m): m for m in (rep.ccw_motion, rep.cw_motion,
                                      rep.chosen) if m is not None}
        for m in motions.values():
            if min_separation(m) < inst.s - 1e-7:
                bad.append((inst, "separation"))
                break
            convex = True
            for traj in (m.traj_a, m.traj_b):
                if len(traj.primitives) > 6:
                    bad.append((inst, "primitive count"))
                    convex = False
                    break
                if traj.primitives:
                    p0 = traj.point_at(0.0)
                    p1 = traj.point_at(traj.length)
                    if not is_trace_convex(traj, p0, p1):
                        bad.append((inst, "convexity"))
                        convex = False
                        break
            if not convex:
                break
    acceptance_record(
        2, "feasibility, <=6 primitives, convex traces", not bad,
        f"{len(bad)} violations")
    assert not bad, bad[:3]


def test_criterion_3_straight_case_exactness(acceptance_record):
    rng = random.Random(SEED + 1)
    bad = []
    produced = 0
    while produced < 1000:
        inst = random_instance(rng)
        _, n = normalize(inst)
        if classify_case(n) not in ("Case1a", "Case1b"):
            continue
        produced += 1
        exact = math.dist(inst.a0, inst.a1) + math.dist(inst.b0, inst.b1)
        err = abs(plan(inst).chosen.length - exact)
        if err > 1e-12 * exact:
            bad.append((inst, err))
    acceptance_record(
        3, "straight-case exactness on 1,000 instances", not bad,
        f"{len(bad)} beyond 1e-12 relative")
    assert not bad, bad[:3]


def test_criterion_4_oracle_sandwich(acceptance_record):
    rng = random.Random(SEED + 2)
    bad = []
    for _ in range(500):
        inst = random_instance(rng)
        length = plan(inst).chosen.length
        coarse = pivot_grid_search(inst, GridSpec(step=0.05, margin=2.0))
        fine = pivot_grid_search(inst, GridSpec(step=0.025, margin=2.0))
        if not (length - 1e-9 <= coarse.best_length <= length + 0.2):
            bad.append((inst, "sandwich", coarse.best_length - length))
        elif fine.best_length > coarse.best_length + 1e-9:
            bad.append((inst, "refinement", fine.best_length
                        - coarse.best_length))
        elif fine.best_length < length - 1e-9:
            bad.append((inst, "undercut", fine.best_length - length))
    acceptance_record(
        4, "oracle sandwich and monotone refinement on 500 instances",
        not bad, f"{len(bad)} violations")
    assert not bad, bad[:3]


def scaled_instance(inst: Instance, lam: float) -> Instance:
    return Instance(inst.s * lam,
                    Placement(inst.a0 * lam, inst.b0 * lam),
                    Placement(inst.a1 * lam, inst.b1 * lam))


def test_criterion_5_symmetry_suite(acceptance_record):
    rng = random.Random(SEED + 3)
    bad = []
    for _ in range(1000):
        inst = random_instance(rng)
        base = plan(inst).chosen.length

        _, n = normalize(inst)
        r, rr = plan(n), plan(reflect_instance(n))
        pairs = ((r.lengths[0], rr.lengths[1]), (r.lengths[1], rr.lengths[0]))
        for mine, theirs in pairs:
            if (mine is None) != (theirs is None):
                bad.append((inst, "reflection shape"))
            elif mine is not None and abs(mine - theirs) > 1e-9:
                bad.append((inst, "reflection"))

        frame = Frame(rng.uniform(0, 2 * math.pi),
                      Point(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        moved = Instance(inst.s,
                         Placement(frame.apply(inst.a0),
                                   frame.apply(inst.b0)),
                         Placement(frame.apply(inst.a1),
                                   frame.apply(inst.b1)))
        if abs(plan(moved).chosen.length - base) > 1e-9 * max(1.0, base):
            bad.append((inst, "rigid"))

        for lam in (0.1, 3.0, 10.0):
            got = plan(scaled_instance(inst, lam)).chosen.length
            if abs(got - lam * base) > 1e-9 * max(1.0, lam * base):
                bad.append((inst, f"scaling {lam}"))

        rev = plan(Instance(inst.s, inst.p1, inst.p0)).chosen.length
        if abs(rev - base) > 1e-9:
            bad.append((inst, "time reversal"))

        swp = plan(Instance(inst.s,
                            Placement(inst.b0, inst.a0),
                            Placement(inst.b1, inst.a1))).chosen.length
        if abs(swp - base) > 1e-9:
            bad.append((inst, "role swap"))
    acceptance_record(
        5, "symmetry suite on 1,000 instances", not bad,
        f"{len(bad)} violations")
    assert not bad, bad[:3]


def test_criterion_6_metric_axioms(acceptance_record):
    rng = random.Random(SEED + 4)
    s = 1.0

    def placement():
        while True:
            a = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            b = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if math.dist(a, b) >= s:
                return Placement(a, b)

    bad = []
    for _ in range(1000):
        p0, p1, p2 = placement(), placement(), placement()
        if plan(Instance(s, p0, p0)).chosen.length != 0.0:
            bad.append((p0, "identity"))
        d01 = plan(Instance(s, p0, p1)).chosen.length
        d10 = plan(Instance(s, p1, p0)).chosen.length
        if abs(d01 - d10) > 1e-9:
            bad.append((p0, "symmetry"))
        d12 = plan(Instance(s, p1, p2)).chosen.length
        d02 = plan(Instance(s, p0, p2)).chosen.length
        if d02 > d01 + d12 + 1e-9:
            bad.append((p0, "triangle", d02 - d01 - d12))
    acceptance_record(
        6, "metric axioms on 1,000 triples", not bad,
        f"{len(bad)} violations")
    assert not bad, bad[:3]


def monotone_within(profile, tol: float) -> bool:
    d = np.diff(profile)
    return float(d.min()) >= -tol or float(d.max()) <= tol


def test_criterion_7_coupling(corpus, planned, symmetric_crossing, acceptance_record):
    reports, _ = planned
    bad = []
    for inst, rep in zip(corpus, reports):
        cm = couple(rep.chosen)
        if abs(cm.length - rep.chosen.length) > 1e-9:
            bad.append((inst, "length"))
            continue
        if not monotone_within(placement_angle_profile(cm, 10_000), 1e-9):
            bad.append((inst, "profile"))

    # the tight-crossing fixture is the documented non-monotone witness:
    # its decoupled profile reverses, the coupled one must not
    rep = plan(symmetric_crossing)
    decoupled = placement_angle_profile(rep.chosen, 10_000)
    fixture_ok = not monotone_within(decoupled, 1e-9)
    cm = couple(rep.chosen)
    fixture_ok &= monotone_within(placement_angle_profile(cm, 10_000), 1e-9)
    fixture_ok &= abs(cm.length - rep.chosen.length) <= 1e-9

    ok = not bad and fixture_ok
    acceptance_record(
        7, "coupling is monotone and length-preserving", ok,
        f"{len(bad)} violations, witness fixture "
        f"{'ok' if fixture_ok else 'failed'}")
    assert fixture_ok
    assert not bad, bad[:3]


def test_criterion_8_derived_fixtures(symmetric_crossing, blocked_ccw, acceptance_record):
    rep = plan(symmetric_crossing)
    pivot = rep.trace.point("pivot")
    offset = abs(pivot.x - 2.0) if pivot is not None else math.inf
    special_ok = offset <= 1e-9

    rb = plan(blocked_ccw)
    ev = evaluator_for(blocked_ccw)
    ccw_quad = quadrature_bound(ev, blocked_ccw.s, swept_interval(blocked_ccw))
    blocked_ok = (rb.forced_clockwise
                  and rb.chosen.orientation == "cw"
                  and rb.chosen.length < ccw_quad)

    ok = special_ok and blocked_ok
    acceptance_record(
        8, "pivot on the bisector; forced clockwise beats the ccw bound",
        ok,
        f"pivot x offset {offset:.2e}, "
        f"cw {rb.chosen.length:.6f} vs ccw bound {ccw_quad:.6f}")
    assert special_ok
    assert blocked_ok
