"""Grid-search upper-bound oracle and the six-check certificate."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from discmotion import (
    Arc,
    GridSpec,
    LengthBound,
    Motion,
    Point,
    Trajectory,
    certify,
    default_grid,
    dist,
    min_separation,
    normalize,
    oracle,
    pivot_grid_search,
    plan,
)
from discmotion.cli import random_instance
from conftest import make_instance

CHECKS = ("feasibility", "convexity", "boundAgreement",
          "quadratureAgreement", "oracleUpperBound", "primitiveBudget")


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(step=0.0, margin=1.0)
    with pytest.raises(ValueError):
        GridSpec(step=-0.1, margin=1.0)
    with pytest.raises(ValueError):
        GridSpec(step=0.1, margin=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            GridSpec(step=bad, margin=1.0)
        with pytest.raises(ValueError):
            GridSpec(step=0.1, margin=bad)


def test_default_grid_formula(case1, symmetric_crossing):
    for inst in (case1, symmetric_crossing):
        g = default_grid(inst)
        assert g.step == max(0.05, inst.diameter / 400.0)
        assert g.margin == 2.0 * inst.s


def box_points(inst, grid) -> int:
    ix0, ix1, iy0, iy1 = grid.index_ranges(normalize(inst)[1])
    return (ix1 - ix0 + 1) * (iy1 - iy0 + 1)


def test_lattice_cap_is_well_above_the_lattices_in_use():
    cap = oracle._MAX_LATTICE_POINTS
    wide = prune_corpus()[:6]
    # the largest default lattice: s close to the diameter, step d / 400
    big_s = make_instance(20.0, (0, 0), (20, 0), (20, 0), (0, 0))
    assert big_s.diameter / 400.0 == 0.05
    assert max(box_points(i, default_grid(i)) for i in wide) < cap / 50
    assert box_points(big_s, default_grid(big_s)) < cap / 2
    fine = [box_points(i, GridSpec(step=0.025, margin=2.0 * i.s))
            for i in wide]
    assert max(fine) < cap / 10


def test_lattice_above_the_cap_is_rejected_before_allocation(monkeypatch):
    inst = prune_corpus()[0]
    _, n = normalize(inst)

    def no_allocation(*args, **kwargs):
        raise AssertionError("the lattice was allocated")

    monkeypatch.setattr(oracle.np, "arange", no_allocation)
    for step in (1e-300, 5e-324, 1e-3):
        with pytest.raises(ValueError, match="points in the search box"):
            pivot_grid_search(inst, GridSpec(step=step, margin=2.0 * n.s))


def test_oracle_matches_straight_plan_exactly(case1):
    res = pivot_grid_search(case1)
    assert res.best_length == 11.0
    assert res.order in ("ABA", "BAB")
    assert res.orientation in ("ccw", "cw")


def test_oracle_identical_placements_zero():
    inst = make_instance(1.0, (0, 2), (0, 0), (0, 2), (0, 0))
    assert pivot_grid_search(inst).best_length == 0.0


def test_oracle_sandwich_tight_crossing(symmetric_crossing):
    planned = plan(symmetric_crossing).chosen.length
    res = pivot_grid_search(symmetric_crossing, GridSpec(step=0.02, margin=2.0))
    # documented grid-error constant C <= 4
    assert planned - 1e-9 <= res.best_length <= planned + 0.02 * 4


def test_oracle_monotone_under_step_halving(symmetric_crossing):
    coarse = pivot_grid_search(symmetric_crossing, GridSpec(step=0.05, margin=2.0))
    fine = pivot_grid_search(symmetric_crossing, GridSpec(step=0.025, margin=2.0))
    assert fine.best_length <= coarse.best_length + 1e-9


def test_oracle_motion_is_feasible_and_consistent(symmetric_crossing, blocked_ccw):
    for inst in (symmetric_crossing, blocked_ccw):
        res = pivot_grid_search(inst)
        assert min_separation(res.motion) >= inst.s - 1e-7
        assert abs(res.motion.length - res.best_length) \
            <= 1e-9 * max(1.0, res.best_length)


def test_oracle_deterministic(symmetric_crossing):
    a = pivot_grid_search(symmetric_crossing)
    b = pivot_grid_search(symmetric_crossing)
    assert a.best_length == b.best_length
    assert a.best_pivot == b.best_pivot
    assert a.order == b.order


def mover_orders(n):
    """(order, (src, dst, mid0, mid1)) of both mover orders."""
    return (("ABA", (n.a0, n.a1, n.b0, n.b1)),
            ("BAB", (n.b0, n.b1, n.a0, n.a1)))


def brute_force_search(inst, grid):
    """The unpruned search: every lattice point of the box plus both
    endpoint seeds, for both mover orders; the same argmin, (x, y)
    tie-break and ABA preference as the oracle."""
    frame, n = normalize(inst)
    px, py = oracle._lattice(n, grid)
    best = {}
    for order, (src, dst, mid0, mid1) in mover_orders(n):
        cx = np.concatenate([px, [src.x, dst.x]])
        cy = np.concatenate([py, [src.y, dst.y]])
        totals = oracle._order_totals(cx, cy, src, mid0, mid1, dst, n.s)
        if np.isfinite(totals.min()):
            ties = np.flatnonzero(totals == totals.min())
            k = min(ties, key=lambda i: (cx[i], cy[i]))
            best[order] = (totals.min(), Point(float(cx[k]), float(cy[k])))
    order = min(best, key=lambda o: (best[o][0], o))
    pivot = frame.apply(best[order][1])
    return oracle._build_decoupled(inst, pivot, order).length, pivot, order


def half_integer_instance(rng):
    """Placements on the half-integer lattice: collinear and equal-length
    alternatives make exact ties in the search."""
    def placement():
        while True:
            a, b = (Point(rng.randint(-6, 6) / 2, rng.randint(-6, 6) / 2)
                    for _ in range(2))
            if np.hypot(a.x - b.x, a.y - b.y) >= 1.0:
                return a, b
    return make_instance(1.0, *placement(), *placement())


def no_seed_instance(rng):
    """A box-1.5 instance with |A0 - B1| < s and |A1 - B0| < s: no
    endpoint seed is feasible in either mover order."""
    while True:
        inst = random_instance(rng, box=1.5)
        if dist(inst.a0, inst.b1) < inst.s and dist(inst.a1, inst.b0) < inst.s:
            return inst


def prune_corpus(n_wide=6):
    """Its last nine instances have no feasible seed, the swap instance
    last of all."""
    rng = random.Random(4242)
    return ([random_instance(rng, box=10.0) for _ in range(6)][:n_wide]
            + [random_instance(rng, box=1.5) for _ in range(8)]
            + [half_integer_instance(rng) for _ in range(8)]
            # contact ties
            + [make_instance(1.0, (1.5, -0.5), (0, 0.5), (0.5, 1.5),
                             (1.5, 0.5)),
               make_instance(1.0, (0, 0.5), (1, 1.5), (0, 1.5), (-1, 1))]
            + [no_seed_instance(rng) for _ in range(8)]
            # the swap instance
            + [make_instance(1.0, (0, 0), (1.2, 0), (1.2, 0.3), (0, 0.3))])


# at step 0.025 the unpruned box-10 lattice has about a million points,
# so only two wide instances are searched at that pitch
@pytest.mark.parametrize("step,n_wide", [(None, 6), (0.025, 2)])
def test_pruned_search_matches_brute_force(step, n_wide):
    for inst in prune_corpus(n_wide):
        grid = default_grid(inst) if step is None \
            else GridSpec(step=step, margin=2.0 * inst.s)
        length, pivot, order = brute_force_search(inst, grid)
        res = pivot_grid_search(inst, grid)
        assert (res.best_length, res.best_pivot, res.order) \
            == (length, pivot, order), inst


def test_swap_instance_has_no_feasible_seed():
    # nor have the eight seeded instances before it
    for inst in prune_corpus()[-9:]:
        _, n = normalize(inst)
        for _, (src, dst, mid0, mid1) in mover_orders(n):
            seeds = oracle._order_totals(np.array([src.x, dst.x]),
                                         np.array([src.y, dst.y]),
                                         src, mid0, mid1, dst, n.s)
            assert not np.isfinite(seeds).any(), inst


def test_whole_box_branch_matches_brute_force():
    # at this pitch the sub-lattice is B0 alone, infeasible in both orders,
    # so both orders search the whole box
    inst = prune_corpus()[-1]
    grid = GridSpec(step=0.6, margin=2.0 * inst.s)
    _, n = normalize(inst)
    sx, sy = oracle._lattice(n, grid, stride=oracle._SUB_STRIDE)
    for _, (src, dst, mid0, mid1) in mover_orders(n):
        totals = oracle._order_totals(sx, sy, src, mid0, mid1, dst, n.s)
        assert not np.isfinite(totals).any()
    res = pivot_grid_search(inst, grid)
    assert (res.best_length, res.best_pivot, res.order) \
        == brute_force_search(inst, grid)


def test_no_seed_search_evaluates_under_a_quarter_of_the_box(monkeypatch):
    # the sub-lattice bound prunes the swap instance to about a tenth of
    # the whole-box evaluations; the whole-box search is twice the lattice
    inst = prune_corpus()[-1]
    _, n = normalize(inst)
    box = oracle._lattice(n, default_grid(inst))[0].size
    evaluated = []
    order_totals = oracle._order_totals

    def counting(px, py, *args):
        evaluated.append(np.size(px))
        return order_totals(px, py, *args)

    monkeypatch.setattr(oracle, "_order_totals", counting)
    pivot_grid_search(inst)
    assert sum(evaluated) < 0.25 * 2 * box


def test_certificate_all_checks_pass(symmetric_crossing):
    report = plan(symmetric_crossing)
    cert = certify(symmetric_crossing, report)
    assert cert.passed
    assert tuple(name for name, _, _ in cert.checks) == CHECKS
    for name, ok, residual in cert.checks:
        assert ok, name
        assert isinstance(residual, float)


def test_certificate_vacuous_on_identical_placements():
    inst = make_instance(1.0, (0, 2), (0, 0), (0, 2), (0, 0))
    cert = certify(inst, plan(inst))
    assert cert.passed


def corrupt_one_arc(m: Motion) -> Motion:
    """Flip one arc of B's trace onto the complementary sweep: endpoints
    are unchanged, so the motion stays continuous but gets longer."""
    prims = list(m.traj_b.primitives)
    for i, p in enumerate(prims):
        if p.kind == "arc":
            flipped = "cw" if p.direction == "ccw" else "ccw"
            prims[i] = Arc(p.center, p.radius, p.start_angle, p.end_angle,
                           flipped)
            break
    return Motion(m.traj_a, Trajectory(tuple(prims)), m.schedule,
                  m.orientation, m.start, m.end)


def test_certificate_flags_corrupted_arc(symmetric_crossing):
    report = plan(symmetric_crossing)
    bad = SimpleNamespace(chosen=corrupt_one_arc(report.chosen),
                          bound=report.bound)
    cert = certify(symmetric_crossing, bad)
    verdicts = {name: ok for name, ok, _ in cert.checks}
    assert not cert.passed
    assert not verdicts["boundAgreement"]
    assert not verdicts["oracleUpperBound"]
    assert not verdicts["convexity"]
    assert verdicts["feasibility"]
    assert verdicts["quadratureAgreement"]
    assert verdicts["primitiveBudget"]
    assert cert.residual("boundAgreement") > 1e-3


def test_certificate_flags_bound_off_by_1e6(symmetric_crossing):
    report = plan(symmetric_crossing)
    b = report.bound
    off = SimpleNamespace(
        chosen=report.chosen,
        bound=LengthBound(b.ccw + 1e-6, b.cw + 1e-6, b.chosen))
    cert = certify(symmetric_crossing, off)
    verdicts = {name: ok for name, ok, _ in cert.checks}
    assert not verdicts["quadratureAgreement"]
    assert cert.residual("quadratureAgreement") > 1e-6 - 1e-9
