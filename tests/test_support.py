"""Support functions, swept intervals, and the two length-bound evaluators."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from discmotion import (
    AngleInterval,
    Frame,
    Instance,
    Placement,
    Point,
    SupportEvaluator,
    UndefinedAngle,
    classify_case,
    closed_form_bound,
    dist,
    evaluator_for,
    pair_support,
    integrand,
    optimal_length_bound,
    placement_angle,
    quadrature_bound,
    segment_support,
    support,
    swept_interval,
)
from discmotion.cli import random_instance
from conftest import coords, instances, make_instance

TWO_PI = 2 * math.pi


def point_evaluator(a, b) -> SupportEvaluator:
    """Evaluator for two degenerate (single-point) segments."""
    return SupportEvaluator(Point(*a), Point(*a), Point(*b), Point(*b))


def test_segment_support_along_axis():
    assert segment_support(Point(0, 0), Point(2, 0), 0.0) == 2.0


def test_segment_support_opposite_direction():
    assert segment_support(Point(0, 0), Point(2, 0), math.pi) \
        == pytest.approx(0.0, abs=1e-12)


def test_segment_support_perpendicular():
    assert segment_support(Point(0, 0), Point(2, 0), math.pi / 2) \
        == pytest.approx(0.0, abs=1e-12)


def test_pair_support_two_coincident_points_vanishes():
    ev = point_evaluator((0, 0), (0, 0))
    for k in range(8):
        assert pair_support(ev, k * math.pi / 4) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.4, 1.7, 3.0, 4.9])
def test_pair_support_point_hulls_reduce_to_cosine(theta):
    d = 3.25
    ev = point_evaluator((d, 0), (0, 0))
    assert pair_support(ev, theta) == pytest.approx(d * math.cos(theta), abs=1e-12)


def test_pair_support_takes_an_array_of_angles():
    ev = SupportEvaluator(Point(0, 2), Point(4, 3), Point(1, -1), Point(-2, 0))
    thetas = np.linspace(0.0, TWO_PI, 17).reshape(1, 17)
    got = pair_support(ev, thetas)
    assert got.shape == thetas.shape
    for t, h in zip(thetas.ravel(), got.ravel()):
        assert h == pytest.approx(pair_support(ev, float(t)), abs=1e-12)


def test_pair_support_parallel_horizontal_segments():
    ev = SupportEvaluator(Point(0, 2), Point(4, 2), Point(0, 0), Point(4, 0))
    assert pair_support(ev, math.pi / 2) == pytest.approx(2.0, abs=1e-12)


@given(instances(), st.floats(0, TWO_PI))
def test_pair_support_width_nonnegative(inst, theta):
    """Support width of each segment hull is nonnegative, so the sum of
    values at opposite angles cannot be negative."""
    ev = evaluator_for(inst)
    assert pair_support(ev, theta) + pair_support(ev, theta + math.pi) >= -1e-12


def test_placement_angle_east():
    assert placement_angle(Placement(Point(1, 0), Point(0, 0))) == 0.0


def test_placement_angle_north():
    assert placement_angle(Placement(Point(0, 1), Point(0, 0))) \
        == pytest.approx(math.pi / 2, abs=1e-12)


def test_placement_angle_southwest():
    assert placement_angle(Placement(Point(-1, -1), Point(0, 0))) \
        == pytest.approx(5 * math.pi / 4, abs=1e-12)


def test_placement_angle_coincident_rejected():
    with pytest.raises(UndefinedAngle):
        placement_angle(Placement(Point(2, 2), Point(2, 2)))


def test_swept_interval_quarter_turn():
    inst = make_instance(1.0, (2, 0), (0, 0), (0, 2), (0, 0))
    iv = swept_interval(inst)
    assert iv.start == pytest.approx(0.0, abs=1e-12)
    assert iv.measure() == pytest.approx(math.pi / 2, abs=1e-12)


def test_swept_interval_wrapping():
    inst = make_instance(1.0, (0, -2), (0, 0), (2, 2), (0, 0))
    iv = swept_interval(inst)
    assert iv.start == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert iv.measure() == pytest.approx(3 * math.pi / 4, abs=1e-12)


def test_swept_interval_degenerate():
    inst = make_instance(1.0, (2, 0), (0, 0), (5, 0), (3, 0))
    assert swept_interval(inst).measure() == pytest.approx(0.0, abs=1e-12)


@given(st.floats(0, TWO_PI - 1e-9), st.floats(0, TWO_PI - 1e-9))
def test_angle_interval_measure_and_complement(start, end):
    iv = AngleInterval(start, end)
    m = iv.measure()
    assert 0.0 <= m <= TWO_PI
    assert iv.complement().measure() == pytest.approx(TWO_PI - m, abs=1e-9)


def test_angle_interval_contains_wrap():
    iv = AngleInterval(3 * math.pi / 2, math.pi / 4)
    assert iv.contains(0.0)
    assert iv.contains(5.0)
    assert not iv.contains(math.pi / 2)


FULL = AngleInterval(0.0, 0.0, full=True)


def test_integrand_floor_applies_inside_interval():
    ev = point_evaluator((0.3, 0), (0, 0))
    assert integrand(ev, 1.0, FULL, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_integrand_no_floor_outside_interval():
    ev = point_evaluator((-0.4, 0), (0, 0))
    empty = AngleInterval(1.0, 1.0)
    assert integrand(ev, 1.0, empty, 0.0) == pytest.approx(-0.4, abs=1e-12)


def test_integrand_support_dominates_floor():
    ev = point_evaluator((2.5, 0), (0, 0))
    assert integrand(ev, 1.0, FULL, 0.0) == pytest.approx(2.5, abs=1e-12)


def test_closed_form_identical_placements_is_zero():
    inst = make_instance(1.0, (3, 0), (0, 0), (3, 0), (0, 0))
    ev = evaluator_for(inst)
    iv = swept_interval(inst)
    assert abs(closed_form_bound(ev, inst.s, iv)) <= 1e-12


def test_closed_form_straight_case_value(case1):
    assert optimal_length_bound(case1).min == pytest.approx(11.0, abs=1e-9)


@given(coords, coords, coords, coords, coords, coords, coords, coords)
def test_degenerate_interval_recovers_chord_lengths(ax0, ay0, ax1, ay1,
                                                    bx0, by0, bx1, by1):
    """With a measure-zero interval the integral telescopes to the two
    chord lengths (the perimeter identity for segment hulls)."""
    ev = SupportEvaluator(Point(ax0, ay0), Point(ax1, ay1),
                          Point(bx0, by0), Point(bx1, by1))
    expected = math.hypot(ax1 - ax0, ay1 - ay0) \
        + math.hypot(bx1 - bx0, by1 - by0)
    got = closed_form_bound(ev, 1.0, AngleInterval(0.7, 0.7))
    assert got == pytest.approx(expected, abs=1e-9)


@given(instances())
def test_closed_form_matches_quadrature_both_orientations(inst):
    ev = evaluator_for(inst)
    iv = swept_interval(inst)
    for interval in (iv, iv.complement()):
        cf = closed_form_bound(ev, inst.s, interval)
        q = quadrature_bound(ev, inst.s, interval)
        assert abs(cf - q) <= 1e-10 + 1e-9


def test_quadrature_does_not_use_the_active_pair(monkeypatch,
                                                symmetric_crossing):
    """A wrong active pair moves the closed form but not the twin, which
    evaluates the supports from the segment endpoints."""
    inst = symmetric_crossing
    ev = evaluator_for(inst)
    iv = swept_interval(inst)
    intervals = (iv, iv.complement())
    closed = [closed_form_bound(ev, inst.s, i) for i in intervals]
    quad = [quadrature_bound(ev, inst.s, i) for i in intervals]
    true_pair = support._active_pair

    def wrong_pair(ev, theta):
        a, b = true_pair(ev, theta)
        return (ev.a1 if a == ev.a0 else ev.a0,
                ev.b1 if b == ev.b0 else ev.b0)

    monkeypatch.setattr(support, "_active_pair", wrong_pair)
    for i, cf, q in zip(intervals, closed, quad):
        assert abs(closed_form_bound(ev, inst.s, i) - cf) > 1e-3
        assert quadrature_bound(ev, inst.s, i) == q


def test_quadrature_far_from_origin():
    """At an offset of 1e6 the supports carry roundoff of about 1e-10, so
    the twin must not try to refine below it."""
    shift = lambda x, y: (x + 1e6, y - 1e6)
    inst = make_instance(1.0, shift(1.3964404166946087, -0.19151440011771204),
                         shift(0.379944872600412, -0.5969214047234839),
                         shift(1.069201699190267, 1.4729689346064454),
                         shift(0.5138206264875547, -1.0107011340867906))
    ev = evaluator_for(inst)
    iv = swept_interval(inst)
    for interval in (iv, iv.reversed_sweep()):
        assert abs(closed_form_bound(ev, inst.s, interval)
                   - quadrature_bound(ev, inst.s, interval)) <= 1e-8


@given(instances())
def test_closed_form_nonnegative(inst):
    b = optimal_length_bound(inst)
    assert b.ccw >= -1e-9 and b.cw >= -1e-9


def test_quadrature_identical_placements():
    inst = make_instance(1.0, (3, 0), (0, 0), (3, 0), (0, 0))
    ev = evaluator_for(inst)
    q = quadrature_bound(ev, inst.s, swept_interval(inst))
    assert abs(q) <= 1e-9


def test_optimal_bound_identical_placements():
    inst = make_instance(1.0, (0, 2), (0, 0), (0, 2), (0, 0))
    b = optimal_length_bound(inst)
    assert abs(b.ccw) <= 1e-12 and abs(b.cw) <= 1e-12
    assert b.chosen == "ccw"


def test_optimal_bound_axis_symmetric_ties_to_ccw():
    inst = make_instance(1.0, (-2, 0), (0, 0), (6, 0), (4, 0))
    b = optimal_length_bound(inst)
    assert b.ccw == b.cw
    assert b.chosen == "ccw"
    assert b.min == pytest.approx(12.167055724638608, abs=1e-9)


@given(instances(), st.floats(0, TWO_PI), coords, coords)
# equal placement angles that the move leaves 5.6e-16 apart: the swept
# interval must stay degenerate, not become a full turn
@example(make_instance(1.0, (0, 0), (0, -2), (0, 0), (0, -3)), 5.0, 0.0, 9.0)
def test_bound_rigid_invariance(inst, angle, tx, ty):
    frame = Frame(angle, Point(tx, ty))
    moved = Instance(inst.s,
                     Placement(frame.apply(inst.a0), frame.apply(inst.b0)),
                     Placement(frame.apply(inst.a1), frame.apply(inst.b1)))
    b0, b1 = optimal_length_bound(inst), optimal_length_bound(moved)
    scale = max(1.0, b0.min)
    assert abs(b0.ccw - b1.ccw) <= 1e-9 * scale
    assert abs(b0.cw - b1.cw) <= 1e-9 * scale


@given(instances(), st.floats(0.1, 10.0))
def test_bound_scaling_equivariance(inst, lam):
    scaled = Instance(inst.s * lam,
                      Placement(inst.a0 * lam, inst.b0 * lam),
                      Placement(inst.a1 * lam, inst.b1 * lam))
    b0, b1 = optimal_length_bound(inst), optimal_length_bound(scaled)
    scale = max(1.0, lam * b0.min)
    assert abs(lam * b0.ccw - b1.ccw) <= 1e-9 * scale
    assert abs(lam * b0.cw - b1.cw) <= 1e-9 * scale


@pytest.mark.parametrize("box", [10.0, 1.5])
def test_straight_case_bound_is_the_chords_exactly(box):
    """Where both robots can go straight, no orientation must detour: the
    lift is exactly zero and the bound is the two chords bit for bit."""
    rng = random.Random(f"chords-{box}")
    straight = 0
    for _ in range(300):
        inst = random_instance(rng, box=box)
        if classify_case(inst) not in ("Case1a", "Case1b"):
            continue
        straight += 1
        chords = dist(inst.a0, inst.a1) + dist(inst.b0, inst.b1)
        assert optimal_length_bound(inst).min == chords
    assert straight >= 100


def mirrored(inst: Instance) -> Instance:
    """The instance reflected in the x-axis, y -> 0.0 - y."""
    m = lambda p: Point(p.x, 0.0 - p.y)
    return Instance(inst.s, Placement(m(inst.a0), m(inst.b0)),
                    Placement(m(inst.a1), m(inst.b1)))


@given(instances())
def test_clockwise_bound_is_the_mirror_counter_clockwise_bound(inst):
    b, m = optimal_length_bound(inst), optimal_length_bound(mirrored(inst))
    assert b.cw == m.ccw
    assert b.ccw == m.cw


x_axis = st.floats(-10.0, 10.0)


@given(x_axis, x_axis, x_axis, x_axis, st.sampled_from([0.0, -0.0]))
def test_x_axis_symmetric_instance_ties_to_ccw(ax0, bx0, ax1, bx1, y):
    """An instance that is its own mirror image sweeps either way at the
    same cost: the two bounds tie exactly and the tie goes ccw."""
    assume(abs(ax0 - bx0) >= 1.0 and abs(ax1 - bx1) >= 1.0)
    inst = make_instance(1.0, (ax0, y), (bx0, y), (ax1, y), (bx1, y))
    b = optimal_length_bound(inst)
    assert b.ccw == b.cw
    assert b.chosen == "ccw"
