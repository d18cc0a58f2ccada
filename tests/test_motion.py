"""Trajectories, motions, separation, convexity, profiles, and coupling."""

import math
import random

import numpy as np
import pytest
from hypothesis import given

from discmotion import (
    Arc,
    Circle,
    Instance,
    JointItem,
    Motion,
    Phase,
    Placement,
    Point,
    Segment,
    Trajectory,
    couple,
    is_trace_convex,
    min_separation,
    min_separation_sampled,
    placement_angle_profile,
    plan,
    reverse_motion,
    sample,
    shortest_path_avoiding_disc,
    swap_roles,
)
from discmotion.cli import random_instance
from conftest import instances, make_instance

PARKED = Trajectory(())


def static_motion(static_a: Point, traj_b: Trajectory,
                  orientation: str = "ccw") -> Motion:
    """A parks at static_a while B runs traj_b in one phase."""
    return Motion(PARKED, traj_b, (Phase("B", 0, len(traj_b.primitives)),),
                  orientation,
                  Placement(static_a, traj_b.point_at(0.0)),
                  Placement(static_a, traj_b.point_at(traj_b.length)))


def test_segment_length_three_four_five():
    assert Segment(Point(0, 0), Point(3, 4)).length == 5.0


def test_arc_length_half_turn():
    arc = Arc(Point(0, 0), 1.0, 0.0, math.pi, "ccw")
    assert arc.length == pytest.approx(math.pi, abs=1e-12)


def test_arc_zero_sweep_length():
    arc = Arc(Point(0, 0), 1.0, 0.7, 0.7, "ccw")
    assert arc.length == 0.0


def test_trajectory_rejects_gap():
    with pytest.raises(ValueError):
        Trajectory((Segment(Point(0, 0), Point(1, 0)),
                    Segment(Point(1.1, 0), Point(2, 0))))


def test_motion_length_identical_placements():
    inst = make_instance(1.0, (0, 2), (0, 0), (0, 2), (0, 0))
    m = plan(inst).chosen
    assert m.length == 0.0
    assert len(m.schedule) == 0


def test_motion_length_sums_both_trajectories(case1):
    m = plan(case1).chosen
    assert m.length == pytest.approx(11.0, abs=1e-12)


def test_sample_endpoints_exact(symmetric_crossing, blocked_ccw, case1):
    for inst in (symmetric_crossing, blocked_ccw, case1):
        m = plan(inst).chosen
        assert sample(m, 0.0) == m.start
        assert sample(m, 1.0) == m.end


def test_sample_midpoint_of_single_phase():
    m = static_motion(Point(5, 5),
                      Trajectory((Segment(Point(0, 0), Point(10, 0)),)))
    mid = sample(m, 0.5)
    assert mid.a == Point(5, 5)
    assert mid.b == pytest.approx((5.0, 0.0), abs=1e-12)


def test_sample_coupled_parallel_translation_keeps_angle():
    ta = Trajectory((Segment(Point(0, 1), Point(3, 1)),))
    tb = Trajectory((Segment(Point(0, 0), Point(3, 0)),))
    m = Motion(ta, tb, (JointItem(0.0, 3.0, 0.0, 3.0),), "ccw",
               Placement(Point(0, 1), Point(0, 0)),
               Placement(Point(3, 1), Point(3, 0)))
    prof = placement_angle_profile(m, 500)
    assert float(prof.max() - prof.min()) <= 1e-12
    assert min_separation(m) == pytest.approx(1.0, abs=1e-12)


def test_min_separation_static_point_to_segment():
    m = static_motion(Point(5, 5),
                      Trajectory((Segment(Point(0, 0), Point(10, 0)),)))
    assert min_separation(m) == 5.0


def test_min_separation_arc_about_static_centre_is_exact():
    arc = Arc(Point(0, 0), 1.0, math.pi, 0.0, "cw")
    m = static_motion(Point(0, 0), Trajectory((arc,)), "cw")
    assert min_separation(m) == 1.0


def test_min_separation_joint_item_endpoint_rule():
    ta = Trajectory((Segment(Point(0, 1), Point(1, 1.2)),))
    tb = Trajectory((Segment(Point(0, 0), Point(1, 0)),))
    m = Motion(ta, tb, (JointItem(0.0, ta.length, 0.0, tb.length),), "ccw",
               Placement(Point(0, 1), Point(0, 0)),
               Placement(Point(1, 1.2), Point(1, 0)))
    assert min_separation(m) == pytest.approx(1.0, abs=1e-12)


def test_min_separation_joint_item_crossing_paths():
    # the relative vector passes 0.1 from the origin mid-item, far from
    # both endpoints
    ta = Trajectory((Segment(Point(-2, 0), Point(2, 0)),))
    tb = Trajectory((Segment(Point(2, 0.1), Point(-2, 0.1)),))
    m = Motion(ta, tb, (JointItem(0.0, 4.0, 0.0, 4.0),), "ccw",
               Placement(Point(-2, 0), Point(2, 0.1)),
               Placement(Point(2, 0), Point(-2, 0.1)))
    assert min_separation(m) == pytest.approx(0.1, abs=1e-12)


def test_min_separation_sampled_agrees_on_planned_motions(symmetric_crossing, blocked_ccw,
                                                          case1):
    for inst in (symmetric_crossing, blocked_ccw, case1):
        m = plan(inst).chosen
        analytic = min_separation(m)
        sampled = min_separation_sampled(m)
        assert sampled >= analytic - 1e-9
        assert sampled - analytic <= 1e-5


def test_single_segment_trace_is_convex():
    tr = Trajectory((Segment(Point(0, 0), Point(3, 4)),))
    assert is_trace_convex(tr, Point(0, 0), Point(3, 4))


def test_tangent_arc_tangent_trace_is_convex():
    tr = shortest_path_avoiding_disc(Point(-2, 0), Point(2, 0),
                                     Circle(Point(0, 0), 1.0), side="above")
    assert is_trace_convex(tr, Point(-2, 0), Point(2, 0))


def test_zigzag_trace_is_not_convex():
    tr = Trajectory((Segment(Point(0, 0), Point(1, 1)),
                     Segment(Point(1, 1), Point(2, 0)),
                     Segment(Point(2, 0), Point(3, 1))))
    assert not is_trace_convex(tr, Point(0, 0), Point(3, 1))


def test_profile_pure_translation_constant():
    ta = Trajectory((Segment(Point(0, 2), Point(4, 2)),))
    tb = Trajectory((Segment(Point(0, 0), Point(4, 0)),))
    m = Motion(ta, tb, (Phase("A", 0, 1), Phase("B", 0, 1)), "ccw",
               Placement(Point(0, 2), Point(0, 0)),
               Placement(Point(4, 2), Point(4, 0)))
    prof = placement_angle_profile(m, 800)
    # each decoupled leg changes the angle, but start and end agree and the
    # coupled parallel translation below stays constant throughout
    coupled = couple(m)
    cprof = placement_angle_profile(coupled, 800)
    assert abs(prof[-1] - prof[0]) <= 1e-9
    assert float(np.ptp(cprof)) <= 1e-9


def test_profile_rotation_spans_beta():
    beta = 1.3
    arc = Arc(Point(0, 0), 1.0, 0.2, 0.2 + beta, "ccw")
    m = static_motion(Point(0, 0), Trajectory((arc,)))
    prof = placement_angle_profile(m, 1000)
    assert float(prof[-1] - prof[0]) == pytest.approx(beta, abs=1e-9)


def test_profile_tight_crossing_is_non_monotone(symmetric_crossing):
    m = plan(symmetric_crossing).chosen
    d = np.diff(placement_angle_profile(m, 10_000))
    assert float(d.max()) > 1e-5
    assert float(d.min()) < -1e-5


def test_couple_tight_crossing(symmetric_crossing):
    m = plan(symmetric_crossing).chosen
    cm = couple(m)
    assert cm.is_coupled
    assert abs(cm.length - m.length) <= 1e-9 * max(1.0, m.length)
    d = np.diff(placement_angle_profile(cm, 10_000))
    assert float(d.min()) >= -1e-9
    assert min_separation(cm) >= 1.0 - 1e-7
    assert cm.start == m.start and cm.end == m.end


def test_couple_already_monotone_straight_motion(case1):
    m = plan(case1).chosen
    cm = couple(m)
    assert abs(cm.length - m.length) <= 1e-9 * max(1.0, m.length)
    d = np.diff(placement_angle_profile(cm, 10_000))
    assert float(d.min()) >= -1e-9 or float(d.max()) <= 1e-9


@given(instances())
def test_couple_keeps_the_planned_paths(inst):
    m = plan(inst).chosen
    cm = couple(m)
    assert cm.traj_a == m.traj_a and cm.traj_b == m.traj_b


def test_couple_far_from_origin():
    inst = random_instance(random.Random(57), box=1.5)
    shift = Point(1e6, -1e6)
    far = Instance(inst.s, Placement(inst.a0 + shift, inst.b0 + shift),
                   Placement(inst.a1 + shift, inst.b1 + shift))
    cm = couple(plan(far).chosen)
    d = np.diff(placement_angle_profile(cm, 10_000))
    assert float(d.min()) >= -1e-9 or float(d.max()) <= 1e-9


def test_couple_empty_motion():
    inst = make_instance(1.0, (0, 2), (0, 0), (0, 2), (0, 0))
    m = plan(inst).chosen
    assert couple(m).length == 0.0


def test_reverse_motion_swaps_endpoints(symmetric_crossing):
    m = plan(symmetric_crossing).chosen
    r = reverse_motion(m)
    assert r.start == m.end and r.end == m.start
    assert r.length == pytest.approx(m.length, abs=1e-12)
    assert min_separation(r) >= 1.0 - 1e-7


def test_reverse_motion_rejects_coupled(symmetric_crossing):
    cm = couple(plan(symmetric_crossing).chosen)
    with pytest.raises(ValueError):
        reverse_motion(cm)


def test_swap_roles_exchanges_trajectories(blocked_ccw):
    m = plan(blocked_ccw).chosen
    sw = swap_roles(m)
    assert sw.traj_a.length == pytest.approx(m.traj_b.length, abs=1e-12)
    assert sw.traj_b.length == pytest.approx(m.traj_a.length, abs=1e-12)
    assert sw.start.a == m.start.b and sw.start.b == m.start.a
    assert sw.length == pytest.approx(m.length, abs=1e-12)
