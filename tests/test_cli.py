"""Command-line front end: JSON I/O, plan/verify/fuzz/render, exit codes."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

from discmotion import GridSpec, normalize, oracle
from discmotion.cli import _emit_json, main, parse_instance

CASE1 = {"s": 1.0, "A0": [5.0, 5.0], "B0": [0.0, 0.0],
         "A1": [6.0, 5.0], "B1": [10.0, 0.0]}
SYMMETRIC_CROSSING = {"s": 1.0, "A0": [1.0, 0.4], "B0": [0.0, 0.0],
           "A1": [3.0, 0.4], "B1": [4.0, 0.0]}
BLOCKED_CCW = {"s": 1.0, "A0": [1.6, -0.3], "B0": [0.0, 0.0],
            "A1": [0.6, -0.3], "B1": [2.2, 0.0]}
# a wide instance whose coupled plan once ended in sliver primitives
SLIVER = {"s": 1.0, "A0": [-3.974646809685753, -9.379764970605],
          "B0": [7.310544739578912, -0.5450182266906634],
          "A1": [-2.1007319199851215, 6.018175419704566],
          "B1": [-1.1075788789847874, 8.71173443409042]}


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_to_stdout(tmp_path, capsys):
    path = write_instance(tmp_path, CASE1)
    code, out, _ = run(["plan", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "Case1a"
    assert doc["certified"] is True
    assert doc["lengths"]["chosen"] == 11.0
    assert abs(doc["lengths"]["bound"] - 11.0) <= 1e-9
    kinds = [p["kind"] for p in doc["trajectories"]["A"]]
    assert kinds == ["segment"]
    assert doc["schedule"][0]["robot"] == "B"


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_plan_straight_segments_are_the_input_coordinates(tmp_path, capsys,
                                                         offset):
    inst = {"s": 0.7, "A0": [0.1 + offset, 0.3 - offset],
            "B0": [-1.37 + offset, 2.9 - offset],
            "A1": [3.3 + offset, 0.7 - offset],
            "B1": [-2.2 + offset, 5.1 - offset]}
    code, out, _ = run(["plan", write_instance(tmp_path, inst)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] in ("Case1a", "Case1b")
    for robot in ("A", "B"):
        (seg,) = doc["trajectories"][robot]
        assert seg["kind"] == "segment"
        assert (seg["from"], seg["to"]) == (inst[robot + "0"],
                                            inst[robot + "1"])


def test_plan_file_round_trip_is_bit_identical(tmp_path, capsys):
    path = write_instance(tmp_path, SYMMETRIC_CROSSING)
    out_path = tmp_path / "plan.json"
    code, _, _ = run(["plan", path, "--out", str(out_path)], capsys)
    assert code == 0
    original = out_path.read_bytes()
    doc = json.loads(original.decode("utf-8"))
    again = tmp_path / "again.json"
    _emit_json(doc, str(again))
    assert again.read_bytes() == original


def test_plan_coupled_schedule(tmp_path, capsys):
    path = write_instance(tmp_path, SYMMETRIC_CROSSING)
    code, out, _ = run(["plan", path, "--couple"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all("aFrom" in item for item in doc["schedule"])
    assert abs(doc["lengths"]["chosen"] - doc["lengths"]["bound"]) \
        <= 1e-6 * max(1.0, doc["lengths"]["bound"])


def test_plan_svg_output(tmp_path, capsys):
    path = write_instance(tmp_path, SYMMETRIC_CROSSING)
    svg = tmp_path / "scene.svg"
    code, _, _ = run(["plan", path, "--out", str(tmp_path / "p.json"),
                      "--svg", str(svg)], capsys)
    assert code == 0
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) >= 2


def test_plan_orientation_cw_when_only_ccw_exists(tmp_path, capsys):
    path = write_instance(tmp_path, SYMMETRIC_CROSSING)
    code, out, err = run(["plan", path, "--orientation", "cw"], capsys)
    assert code == 2
    assert "no net-cw motion" in err
    assert json.loads(out)["certified"] is False


def test_plan_orientation_ccw_on_forced_instance(tmp_path, capsys):
    path = write_instance(tmp_path, BLOCKED_CCW)
    code, _, err = run(["plan", path, "--orientation", "ccw"], capsys)
    assert code == 2
    assert "no net-ccw motion" in err


def test_plan_orientation_cw_on_forced_instance(tmp_path, capsys):
    path = write_instance(tmp_path, BLOCKED_CCW)
    code, out, _ = run(["plan", path, "--orientation", "cw"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["forcedClockwise"] is True
    assert abs(doc["lengths"]["chosen"] - 3.521335323675482) <= 1e-9


def test_plan_orientation_on_straight_case(tmp_path, capsys):
    # The straight Case-1 motion meets the ccw bound, so requesting ccw
    # succeeds; the cw bound is strictly larger and no net-cw motion is
    # constructed, so requesting cw is refused.
    path = write_instance(tmp_path, CASE1)
    code, out, _ = run(["plan", path, "--orientation", "ccw"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["lengths"]["chosen"] == 11.0
    assert doc["lengths"]["bound"] == 11.0

    code, _, err = run(["plan", path, "--orientation", "cw"], capsys)
    assert code == 2
    assert "no net-cw motion is certifiable" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"s": 1.0,, }', encoding="utf-8")
    code, _, err = run(["plan", str(path)], capsys)
    assert code == 1
    assert "malformed JSON at line 1 column" in err


def test_unknown_field_rejected(tmp_path, capsys):
    doc = dict(CASE1)
    doc["radius"] = 2.0
    path = write_instance(tmp_path, doc)
    code, _, err = run(["plan", path], capsys)
    assert code == 1
    assert "unknown field 'radius'" in err


def test_missing_field_rejected(tmp_path, capsys):
    doc = dict(CASE1)
    del doc["B1"]
    path = write_instance(tmp_path, doc)
    code, _, err = run(["plan", path], capsys)
    assert code == 1
    assert "missing field 'B1'" in err


def test_boolean_radius_sum_rejected(tmp_path, capsys):
    doc = dict(CASE1)
    doc["s"] = True
    path = write_instance(tmp_path, doc)
    code, _, err = run(["plan", path], capsys)
    assert code == 1
    assert "'s'" in err


def test_overlapping_placement_rejected(tmp_path, capsys):
    doc = dict(CASE1)
    doc["A0"] = [0.5, 0.0]
    path = write_instance(tmp_path, doc)
    code, _, err = run(["plan", path], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_missing_file(tmp_path, capsys):
    code, _, err = run(["plan", str(tmp_path / "nope.json")], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_verify_fresh_plan_passes(tmp_path, capsys):
    path = write_instance(tmp_path, SYMMETRIC_CROSSING)
    plan_path = tmp_path / "plan.json"
    run(["plan", path, "--out", str(plan_path)], capsys)
    code, out, _ = run(["verify", str(plan_path)], capsys)
    assert code == 0
    assert out.count("PASS") == 7
    assert "certificate: PASS" in out
    for name in ("feasibility", "convexity", "boundAgreement",
                 "quadratureAgreement", "oracleUpperBound",
                 "primitiveBudget"):
        assert name in out


def test_verify_corrupted_arc_fails(tmp_path, capsys):
    path = write_instance(tmp_path, SYMMETRIC_CROSSING)
    plan_path = tmp_path / "plan.json"
    run(["plan", path, "--out", str(plan_path)], capsys)
    doc = json.loads(plan_path.read_text(encoding="utf-8"))
    for prim in doc["trajectories"]["B"]:
        if prim["kind"] == "arc":
            prim["direction"] = "cw" if prim["direction"] == "ccw" else "ccw"
            break
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(["verify", str(plan_path)], capsys)
    assert code == 2
    assert "certificate: FAIL" in out
    lines = dict(line.split(None, 1) for line in out.splitlines()
                 if line and not line.startswith("certificate"))
    assert lines["boundAgreement"].startswith("FAIL")
    assert lines["oracleUpperBound"].startswith("FAIL")
    assert lines["feasibility"].startswith("PASS")


def planned_document(tmp_path, capsys, inst):
    path = write_instance(tmp_path, inst)
    plan_path = tmp_path / "plan.json"
    code, _, _ = run(["plan", path, "--out", str(plan_path)], capsys)
    assert code == 0
    return str(plan_path)


@pytest.mark.parametrize("step", ["nan", "inf", "0"])
def test_verify_rejects_bad_grid_step(tmp_path, capsys, step):
    plan_path = planned_document(tmp_path, capsys, BLOCKED_CCW)
    code, out, err = run(["verify", plan_path, "--grid-step", step], capsys)
    assert code == 1
    assert err.startswith("error: --grid-step:")
    assert out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_bad_quad_tol(tmp_path, capsys, tol):
    plan_path = planned_document(tmp_path, capsys, BLOCKED_CCW)
    code, out, err = run(["verify", plan_path, "--quad-tol", tol], capsys)
    assert code == 1
    assert err.startswith("error: --quad-tol:")
    assert out == ""


def _step_past_the_lattice_cap(inst) -> float:
    """A pitch whose search box holds just more points than the cap,
    found by bisection on the index ranges alone."""
    _, n = normalize(inst)
    too_fine, fine = 1e-6, 1.0
    for _ in range(60):
        mid = 0.5 * (too_fine + fine)
        try:
            GridSpec(step=mid, margin=2.0 * inst.s).index_ranges(n)
            fine = mid
        except ValueError:
            too_fine = mid
    ix0, ix1, iy0, iy1 = GridSpec(step=fine,
                                  margin=2.0 * inst.s).index_ranges(n)
    points = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
    assert points > 0.99 * oracle._MAX_LATTICE_POINTS
    return too_fine


@pytest.mark.parametrize("step", ["1e-300", "past the cap"])
def test_verify_rejects_a_lattice_above_the_cap(tmp_path, capsys,
                                                monkeypatch, step):
    plan_path = planned_document(tmp_path, capsys, BLOCKED_CCW)
    if step == "past the cap":
        step = repr(_step_past_the_lattice_cap(parse_instance(BLOCKED_CCW)))

    def no_allocation(*args, **kwargs):
        raise AssertionError("the lattice was allocated")

    monkeypatch.setattr(oracle.np, "arange", no_allocation)
    code, out, err = run(["verify", plan_path, "--grid-step", step], capsys)
    assert code == 1
    assert err.startswith("error: --grid-step:")
    assert "points in the search box" in err
    assert out == ""


def test_verify_exhausted_grid_oracle_exits_2(tmp_path, capsys):
    # at this pitch the only lattice pivot is B0, inside both circles, and
    # neither endpoint seed is feasible
    plan_path = planned_document(tmp_path, capsys, BLOCKED_CCW)
    code, out, err = run(["verify", plan_path, "--grid-step", "1e9"], capsys)
    assert code == 2
    assert err.startswith("error: grid oracle: no feasible pivot")
    assert out == ""


def plan_documents(tmp_path, capsys, inst):
    """Decoupled and coupled plan documents of one instance."""
    path = write_instance(tmp_path, inst)
    docs = []
    for extra in ([], ["--couple"]):
        out_path = tmp_path / "plan.json"
        code, _, _ = run(["plan", path, "--out", str(out_path)] + extra,
                         capsys)
        assert code == 0
        docs.append(json.loads(out_path.read_text(encoding="utf-8")))
    return docs


@pytest.mark.parametrize("inst", [SYMMETRIC_CROSSING, SLIVER])
def test_verify_coupled_plan_passes(tmp_path, capsys, inst):
    decoupled, coupled = plan_documents(tmp_path, capsys, inst)
    assert coupled["trajectories"] == decoupled["trajectories"]
    assert all("aFrom" in item for item in coupled["schedule"])
    plan_path = tmp_path / "coupled.json"
    plan_path.write_text(json.dumps(coupled), encoding="utf-8")
    code, out, _ = run(["verify", str(plan_path)], capsys)
    assert code == 0
    assert "certificate: PASS" in out


def _shift_x(doc):
    for prims in doc["trajectories"].values():
        for prim in prims:
            for key in ("from", "to", "center"):
                if key in prim:
                    prim[key][0] += 100.0


def _cut_schedule(doc):
    doc["schedule"] = doc["schedule"][:1]


def _mix_schedule(doc):
    doc["schedule"].insert(0, {"robot": "A", "start": 0, "stop": 0})


def _join_schedule(doc):
    items = doc["schedule"]
    doc["schedule"] = [{"aFrom": 0.0, "aTo": items[-1]["aTo"],
                        "bFrom": 0.0, "bTo": items[-1]["bTo"]}]


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("mutate", [_shift_x, _cut_schedule])
@pytest.mark.parametrize("command", ["verify", "render"])
def test_plan_document_not_covering_instance_rejected(
        tmp_path, capsys, coupled, mutate, command):
    doc = plan_documents(tmp_path, capsys, SYMMETRIC_CROSSING)[coupled]
    mutate(doc)
    plan_path = tmp_path / "mutant.json"
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, str(plan_path)]
    if command == "render":
        argv += ["--svg", str(tmp_path / "mutant.svg")]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("mutate, message", [
    (_mix_schedule, "mixes phases and joint items"),
    (_join_schedule, "not straight")])
def test_coupled_schedule_checked(tmp_path, capsys, mutate, message):
    doc = plan_documents(tmp_path, capsys, SYMMETRIC_CROSSING)[1]
    mutate(doc)
    plan_path = tmp_path / "mutant.json"
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(["verify", str(plan_path)], capsys)
    assert code == 1
    assert message in err


def test_fuzz_deterministic_and_passing(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code1, _, _ = run(["fuzz", "--n", "25", "--seed", "3",
                       "--report", str(r1)], capsys)
    code2, _, _ = run(["fuzz", "--n", "25", "--seed", "3",
                       "--report", str(r2)], capsys)
    assert code1 == 0 and code2 == 0
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text(encoding="utf-8"))
    assert doc["allPassed"] is True
    assert doc["n"] == 25
    assert sum(doc["caseHistogram"].values()) == 25
    assert all(v == 25 for v in doc["checkPasses"].values())


def test_fuzz_different_seed_differs(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run(["fuzz", "--n", "10", "--seed", "1", "--report", str(r1)], capsys)
    run(["fuzz", "--n", "10", "--seed", "2", "--report", str(r2)], capsys)
    d1 = json.loads(r1.read_text(encoding="utf-8"))
    d2 = json.loads(r2.read_text(encoding="utf-8"))
    assert d1["worstResiduals"] != d2["worstResiduals"]


def test_render_plan_file(tmp_path, capsys):
    path = write_instance(tmp_path, BLOCKED_CCW)
    plan_path = tmp_path / "plan.json"
    run(["plan", path, "--out", str(plan_path)], capsys)
    svg = tmp_path / "out.svg"
    code, _, _ = run(["render", str(plan_path), "--svg", str(svg),
                      "--frames", "3"], capsys)
    assert code == 0
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) >= 6


def test_render_zero_frames(tmp_path, capsys):
    path = write_instance(tmp_path, CASE1)
    plan_path = tmp_path / "plan.json"
    run(["plan", path, "--out", str(plan_path)], capsys)
    svg = tmp_path / "bare.svg"
    code, _, _ = run(["render", str(plan_path), "--svg", str(svg),
                      "--frames", "0"], capsys)
    assert code == 0
    assert ET.parse(svg).getroot().tag.endswith("svg")


def test_viewbox_margin_contains_scene(tmp_path, capsys):
    path = write_instance(tmp_path, CASE1)
    svg = tmp_path / "scene.svg"
    run(["plan", path, "--out", str(tmp_path / "p.json"),
         "--svg", str(svg)], capsys)
    x, y, w, h = (float(v) for v in
                  ET.parse(svg).getroot().attrib["viewBox"].split())
    # every input point (y negated for screen coordinates) is inside
    for px, py in ([5, 5], [0, 0], [6, 5], [10, 0]):
        assert x <= px <= x + w
        assert y <= -py <= y + h
    assert not math.isclose(w, 0.0) and not math.isclose(h, 0.0)
