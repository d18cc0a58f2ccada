"""Case machine, zone machine, pivots, path legs, and the full planner."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from discmotion import (
    Circle,
    ClassificationFailure,
    ForcedClockwiseSignal,
    Frame,
    InfeasibleEndpoint,
    Instance,
    Placement,
    Point,
    build_generic_motion,
    classify_case,
    classify_zone_case2,
    classify_zone_case3,
    compute_pivot_case2,
    compute_pivot_case3,
    forced_clockwise,
    min_separation,
    normalize,
    placement_angle_profile,
    plan,
    reflect_instance,
    shortest_path_avoiding_disc,
    swept_interval,
)
from discmotion.cli import random_instance
from conftest import instances, make_instance

# fixtures exercised across several tests; expected numbers were computed
# with the grid-search oracle and the closed-form bound, then frozen here
Z1 = make_instance(1.0, (0.7, 0.8), (0, 0), (-3.0, 2.0), (4, 0))
Z2 = make_instance(1.0, (1.2, 0.1), (0, 0), (-1.4, 0.75), (4, 0))
Z4 = make_instance(1.0, (0.7, 0.8), (0, 0), (2.5, -0.2), (4, 0))
C3_ZONE1 = make_instance(1.0, (2.0, 0.5), (0, 0), (2.2, 0.9), (4, 0))
C3_ZONE2 = make_instance(1.0, (2.2, 0.9), (0, 0), (2.0, 0.5), (4, 0))
C3_ZONE4 = make_instance(1.0,
                         (2.656073779890493, 0.7596387364394894), (0, 0),
                         (1.4537270533834197, 0.7044695740067031), (4, 0))
BOTH_BELOW = make_instance(1.0, (0.72, -0.72), (0, 0), (0.75, -0.72), (1.5, 0))
STRADDLE = make_instance(1.0, (0.5, -0.9), (0, 0), (0.5, 0.9), (1.0, 0))
LENS = make_instance(1.0,
                     (1.0055418959855054, -0.6027190263034078), (0, 0),
                     (0.9572311880836922, 0.4630470535687521),
                     (1.8502169263178838, 0))
TWO_CANDIDATES = make_instance(1.0,
                               (0.1650545965487238, -0.12266268790205159),
                               (0.7397917286281988, -1.0838859502762186),
                               (-0.922130466145833, 0.4606816463999428),
                               (-1.5722940310713023, 1.5593836343967522))
DETOUR_CW = make_instance(1.0,
                          (-0.4710838351381761, -0.02617621803576542),
                          (-1.783197851020147, 0.44481399812239686),
                          (0.3481654751993075, -0.6069224317965014),
                          (1.4736219148790737, -0.7909678713283654))
ZONE4_SUB3 = make_instance(1.0,
                           (-2.334243335190499, 1.5694220103725218),
                           (0.6199284472029429, 0.8977593045314252),
                           (0.9445016300351119, 0.7977872448217371),
                           (-2.4961731669115075, 0.5933220160176909))
COLLINEAR_SWAP = make_instance(1.0, (-2, 0), (0, 0), (6, 0), (4, 0))


def test_classify_wide_clearance():
    inst = make_instance(1.0, (5, 5), (0, 0), (5, 6), (10, 0))
    assert classify_case(inst) == "Case1a"


def test_classify_both_a_endpoints_in_corridor():
    inst = make_instance(1.0, (5, 0.5), (0, 0), (2, 0.5), (10, 0))
    assert classify_case(inst) == "Case3a"


def test_classify_start_blocked_goal_segment_near_b0():
    inst = make_instance(1.0, (1.0, -0.35), (0, 0), (0.5, 9.0), (10, 0))
    assert classify_case(inst) == "Case2a"


@given(instances())
def test_classify_total(inst):
    _, n = normalize(inst)
    assert classify_case(n) in {"Case1a", "Case1b", "Case2a",
                                "Case2b", "Case3a", "Case3b"}


def test_forced_clockwise_wedged_under_circles(blocked_ccw):
    _, n = normalize(blocked_ccw)
    assert forced_clockwise(n)


def test_forced_clockwise_false_above_tangents():
    inst = make_instance(1.0, (1, 0.5), (0, 0), (3, 0.5), (4, 0))
    _, n = normalize(inst)
    assert not forced_clockwise(n)


def test_forced_clockwise_reflection_duality(blocked_ccw, symmetric_crossing):
    _, nb = normalize(blocked_ccw)
    assert not forced_clockwise(reflect_instance(nb))
    # the mirrored tight crossing is wedged below both circles
    _, ns = normalize(symmetric_crossing)
    assert not forced_clockwise(ns)
    assert forced_clockwise(reflect_instance(ns))


def test_zone2_start_wedge_goal_above_first_circle():
    _, n = normalize(Z1)
    zone = classify_zone_case2(n)
    assert (zone.zone, zone.circles, zone.subcase) \
        == ("I", "circlesDisjoint", "aboveU")
    pivot, _ = compute_pivot_case2(n, zone)
    assert pivot == n.a1


def test_zone2_goal_between_bounding_tangents():
    _, n = normalize(Z2)
    zone = classify_zone_case2(n)
    assert (zone.zone, zone.circles) == ("II", "circlesDisjoint")
    pivot, _ = compute_pivot_case2(n, zone)
    assert pivot.x == pytest.approx(0.5421193630183314, abs=1e-9)
    assert pivot.y == pytest.approx(0.8403014912759578, abs=1e-9)
    # the cut point sits on the first obstacle circle
    assert math.hypot(pivot.x, pivot.y) == pytest.approx(1.0, abs=1e-9)


def test_zone2_goal_dominated_by_start():
    _, n = normalize(Z4)
    zone = classify_zone_case2(n)
    assert (zone.zone, zone.subcase) == ("IV", "1")
    pivot, _ = compute_pivot_case2(n, zone)
    assert pivot == n.a0


def test_zone2_handshake_rejects_mismatched_label():
    _, n = normalize(Z4)
    _, nz1 = normalize(Z1)
    wrong = classify_zone_case2(nz1)
    with pytest.raises(ClassificationFailure):
        compute_pivot_case2(n, wrong)


def test_zone3_goal_dominates_start():
    _, n = normalize(C3_ZONE1)
    zone, pivot, _ = classify_zone_case3(n)
    assert zone.zone == "I"
    assert pivot == n.a1


def test_zone3_start_dominates_goal():
    _, n = normalize(C3_ZONE2)
    zone, pivot, _ = classify_zone_case3(n)
    assert zone.zone == "II"
    assert pivot == n.a0


def test_zone3_tight_crossing_pivot_on_bisector(symmetric_crossing):
    _, n = normalize(symmetric_crossing)
    zone, pivot, _ = classify_zone_case3(n)
    assert (zone.zone, zone.circles) == ("III", "circlesDisjoint")
    assert pivot.x == pytest.approx(2.0, abs=1e-9)
    assert pivot.y == pytest.approx(0.6070714214271425, abs=1e-9)


def test_zone3_crossed_tangent_intersection():
    _, n = normalize(C3_ZONE4)
    zone, pivot, _ = classify_zone_case3(n)
    assert zone.zone == "IV"
    assert pivot.x == pytest.approx(2.2402570263094654, abs=1e-9)
    assert pivot.y == pytest.approx(0.7979304517872907, abs=1e-9)


def test_zone3_both_below_reroutes_to_clockwise():
    _, n = normalize(BOTH_BELOW)
    assert classify_case(n) == "Case3a"
    with pytest.raises(ForcedClockwiseSignal):
        classify_zone_case3(n)


def test_zone3_rejects_instances_for_the_other_case():
    _, n = normalize(STRADDLE)
    assert classify_case(n) == "Case2a"
    with pytest.raises(ClassificationFailure):
        classify_zone_case3(n)


def test_compute_pivot_case3_is_the_zone_classifier():
    _, n = normalize(C3_ZONE1)
    assert compute_pivot_case3(n) == classify_zone_case3(n)


UNIT = Circle(Point(0, 0), 1.0)


def test_avoid_disc_tangent_arc_tangent_length():
    tr = shortest_path_avoiding_disc(Point(-2, 0), Point(2, 0), UNIT,
                                     side="above")
    assert tr.length == pytest.approx(2 * math.sqrt(3) + math.pi / 3,
                                      abs=1e-12)
    assert [p.kind for p in tr.primitives] == ["segment", "arc", "segment"]


def test_avoid_disc_unblocked_is_straight():
    tr = shortest_path_avoiding_disc(Point(-2, 2), Point(2, 2), UNIT)
    assert [p.kind for p in tr.primitives] == ["segment"]
    assert tr.length == 4.0


def test_avoid_disc_boundary_start_begins_with_arc():
    tr = shortest_path_avoiding_disc(Point(1, 0), Point(-2, 0), UNIT,
                                     side="above")
    assert tr.primitives[0].kind == "arc"


def test_avoid_disc_auto_picks_shorter_side():
    p0, p1 = Point(-2, 0.3), Point(2, 0.3)
    above = shortest_path_avoiding_disc(p0, p1, UNIT, side="above")
    below = shortest_path_avoiding_disc(p0, p1, UNIT, side="below")
    auto = shortest_path_avoiding_disc(p0, p1, UNIT)
    assert above.length < below.length
    assert auto.length == above.length


def test_avoid_disc_interior_endpoint_rejected():
    with pytest.raises(InfeasibleEndpoint):
        shortest_path_avoiding_disc(Point(0.2, 0), Point(3, 0), UNIT)


def test_generic_motion_three_legs(symmetric_crossing):
    _, n = normalize(symmetric_crossing)
    _, pivot, _ = classify_zone_case3(n)
    m = build_generic_motion(n, pivot)
    assert [p.robot for p in m.schedule] == ["A", "B", "A"]
    assert m.length == pytest.approx(6.121514073322961, abs=1e-9)


def test_generic_motion_degenerate_final_leg_dropped():
    _, n = normalize(Z1)
    m = build_generic_motion(n, n.a1)
    assert [p.robot for p in m.schedule] == ["A", "B"]
    assert m.length == pytest.approx(7.890472109371794, abs=1e-9)


def check_report(inst, report):
    tol = 1e-6 * max(1.0, abs(report.bound.min))
    assert abs(report.chosen.length - report.bound.min) <= tol
    assert min_separation(report.chosen) >= inst.s - 1e-7
    for traj in (report.chosen.traj_a, report.chosen.traj_b):
        assert len(traj.primitives) <= 6


def test_plan_straight_b_first(case1):
    r = plan(case1)
    assert r.case == "Case1a"
    assert r.chosen.length == 11.0
    assert r.lengths == (None, None, 11.0)
    assert [p.robot for p in r.chosen.schedule] == ["B", "A"]
    check_report(case1, r)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (1e6, -1e6)])
def test_plan_straight_segments_join_the_input_placements(offset):
    """Straight plans are built in the caller's frame, so each segment
    runs from an input placement to the other bit for bit."""
    rng = random.Random("straight-endpoints")
    straight = 0
    for _ in range(200):
        base = random_instance(rng, box=1.5)
        move = lambda p: Point(p.x + offset[0], p.y + offset[1])
        inst = Instance(base.s, Placement(move(base.a0), move(base.b0)),
                        Placement(move(base.a1), move(base.b1)))
        r = plan(inst)
        if r.case not in ("Case1a", "Case1b"):
            continue
        straight += 1
        assert (r.chosen.start, r.chosen.end) == (inst.p0, inst.p1)
        for traj, p0, p1 in ((r.chosen.traj_a, inst.a0, inst.a1),
                             (r.chosen.traj_b, inst.b0, inst.b1)):
            if p0 != p1:
                (seg,) = traj.primitives
                assert (seg.start, seg.end) == (p0, p1)
    assert straight >= 50


def test_plan_straight_a_first_when_start_blocks_corridor():
    inst = make_instance(1.0, (5, 0.5), (0, 0), (5, 6), (10, 0))
    r = plan(inst)
    assert r.case == "Case1b"
    assert r.chosen.length == 15.5
    assert [p.robot for p in r.chosen.schedule] == ["A", "B"]
    check_report(inst, r)


def test_plan_identical_placements():
    inst = make_instance(1.0, (0, 2), (0, 0), (0, 2), (0, 0))
    r = plan(inst)
    assert r.chosen.length == 0.0
    assert r.chosen.orientation == "straight"
    assert len(r.chosen.schedule) == 0


def test_plan_tight_crossing(symmetric_crossing):
    r = plan(symmetric_crossing)
    assert r.case == "Case3a"
    assert (r.zone.zone, r.zone.circles) == ("III", "circlesDisjoint")
    assert not r.forced_clockwise
    assert r.chosen.orientation == "ccw"
    assert r.lengths == (6.121514073322961, None, 6.121514073322961)
    pivot = r.trace.point("pivot")
    assert pivot.x == pytest.approx(2.0, abs=1e-9)
    assert r.trace.span("carryAroundPivot") is not None
    check_report(symmetric_crossing, r)


def test_plan_forced_clockwise(blocked_ccw):
    r = plan(blocked_ccw)
    assert r.case == "Case2a"
    assert r.forced_clockwise
    assert r.ccw_motion is None
    assert r.chosen.orientation == "cw"
    assert r.lengths[0] is None
    assert r.chosen.length == pytest.approx(3.521335323675482, abs=1e-9)
    assert (r.zone.zone, r.zone.circles) == ("III", "circlesDisjoint")
    check_report(blocked_ccw, r)


def test_plan_zone1_wedge():
    r = plan(Z1)
    assert r.case == "Case2a"
    assert (r.zone.zone, r.zone.subcase) == ("I", "aboveU")
    assert r.chosen.length == pytest.approx(7.890472109371794, abs=1e-9)
    check_report(Z1, r)


def test_plan_zone2_cut_point():
    r = plan(Z2)
    assert r.case == "Case2a"
    assert r.zone.zone == "II"
    assert r.chosen.length == pytest.approx(6.973403285290714, abs=1e-9)
    check_report(Z2, r)


def test_plan_zone4_dominated_goal():
    r = plan(Z4)
    assert r.case == "Case3a"
    assert r.zone.zone == "II"
    assert r.chosen.length == pytest.approx(6.0985567516178625, abs=1e-9)
    check_report(Z4, r)


def test_plan_overlapping_obstacle_circles():
    r = plan(LENS)
    assert r.case == "Case2a"
    assert (r.zone.zone, r.zone.circles, r.zone.subcase) \
        == ("IV", "circlesIntersect", "1")
    assert r.chosen.orientation == "cw"
    assert r.chosen.length == pytest.approx(3.156733821687296, abs=1e-9)
    check_report(LENS, r)


def test_plan_zone4_third_subcase():
    r = plan(ZONE4_SUB3)
    assert r.case == "Case2a"
    assert (r.zone.zone, r.zone.circles, r.zone.subcase) \
        == ("IV", "circlesDisjoint", "3")
    assert r.chosen.length == pytest.approx(6.506091799878552, abs=1e-9)
    check_report(ZONE4_SUB3, r)


def test_plan_both_candidates_built_and_compared():
    r = plan(TWO_CANDIDATES)
    assert r.case == "Case3a"
    assert r.ccw_motion is not None and r.cw_motion is not None
    assert r.lengths[0] == pytest.approx(5.100679371009056, abs=1e-9)
    assert r.lengths[1] == pytest.approx(5.1415014558245655, abs=1e-9)
    assert r.chosen.orientation == "ccw"
    assert r.lengths[2] == r.lengths[0]
    check_report(TWO_CANDIDATES, r)


def test_plan_clockwise_wins_without_being_forced():
    r = plan(DETOUR_CW)
    assert r.case == "Case3a"
    assert not r.forced_clockwise
    assert r.chosen.orientation == "cw"
    assert r.chosen.length == pytest.approx(4.840551525974219, abs=1e-9)
    check_report(DETOUR_CW, r)


def test_plan_both_below_forced():
    r = plan(BOTH_BELOW)
    assert r.forced_clockwise
    assert r.lengths[0] is None
    assert r.chosen.orientation == "cw"
    assert r.chosen.length == pytest.approx(1.6524985031094221, abs=1e-9)
    assert r.bound.ccw == pytest.approx(4.673323121079558, abs=1e-9)
    check_report(BOTH_BELOW, r)


def test_plan_collinear_swap_ties_to_ccw():
    r = plan(COLLINEAR_SWAP)
    assert r.case == "Case3b"
    assert r.lengths[0] == r.lengths[1]
    assert r.chosen.orientation == "ccw"
    assert r.chosen.length == pytest.approx(12.167055724638612, abs=1e-9)
    check_report(COLLINEAR_SWAP, r)


@given(instances())
@settings(max_examples=60)
def test_plan_matches_bound_and_stays_feasible(inst):
    r = plan(inst)
    check_report(inst, r)


@given(instances())
@settings(max_examples=60)
def test_plan_lengths_tuple_consistent(inst):
    r = plan(inst)
    ccw, cw, chosen = r.lengths
    present = [v for v in (ccw, cw) if v is not None]
    if r.chosen.orientation == "straight":
        # Reported lengths come from the construction frame; the returned
        # motion recomputes its length after the rigid transform back, so
        # the two may differ in the last ulp.
        assert math.isclose(chosen, r.chosen.length, rel_tol=1e-12, abs_tol=1e-12)
    else:
        assert chosen == min(present)
    if r.forced_clockwise:
        assert ccw is None


@given(instances())
@settings(max_examples=60)
def test_plan_monotone_sweep_soundness(inst):
    """A net ccw motion realizes every angle of the swept interval; a net
    cw motion realizes the complement."""
    r = plan(inst)
    if r.chosen.orientation == "straight" or r.chosen.length <= 1e-12:
        return
    measure = swept_interval(inst).measure()
    prof = placement_angle_profile(r.chosen, 4096)
    if r.chosen.orientation == "ccw":
        assert float(prof.max()) - float(prof[0]) >= measure - 1e-6
    else:
        assert float(prof[0]) - float(prof.min()) >= (2 * math.pi - measure) \
            - 1e-6


@given(instances())
@settings(max_examples=40)
def test_plan_time_reversal(inst):
    r = plan(inst)
    rev = plan(Instance(inst.s, inst.p1, inst.p0))
    assert abs(r.chosen.length - rev.chosen.length) \
        <= 1e-9 * max(1.0, r.chosen.length)


@given(instances())
@settings(max_examples=40)
def test_plan_role_swap(inst):
    r = plan(inst)
    swapped = plan(Instance(inst.s,
                            Placement(inst.b0, inst.a0),
                            Placement(inst.b1, inst.a1)))
    assert abs(r.chosen.length - swapped.chosen.length) \
        <= 1e-9 * max(1.0, r.chosen.length)


@given(instances())
@settings(max_examples=40)
def test_plan_reflection_duality(inst):
    _, n = normalize(inst)
    r, rr = plan(n), plan(reflect_instance(n))
    tol = 1e-9 * max(1.0, r.chosen.length)
    for mine, theirs in ((r.lengths[0], rr.lengths[1]),
                         (r.lengths[1], rr.lengths[0])):
        if mine is None or theirs is None:
            assert mine is None and theirs is None
        else:
            assert abs(mine - theirs) <= tol
    assert abs(r.chosen.length - rr.chosen.length) <= tol
