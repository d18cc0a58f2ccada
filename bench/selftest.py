"""Self-test of the correctness gate: it must accept a planned document and
reject four corrupted copies of it.

Run on its own from the repository root with ``python3 bench/selftest.py``;
``run.py`` also runs it after every measurement.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import gate
from corpora import CASE_FIXTURES


def _shift_x(doc):
    for prims in doc["trajectories"].values():
        for p in prims:
            for key in ("from", "to", "center"):
                if key in p:
                    p[key][0] += 100.0


def _first_entry_only(doc):
    doc["schedule"] = doc["schedule"][:1]


def _lengthen(doc):
    doc["lengths"]["chosen"] += 1e-3


def _flip_arc(doc):
    for prims in doc["trajectories"].values():
        for p in prims:
            if p["kind"] == "arc":
                p["direction"] = "cw" if p["direction"] == "ccw" else "ccw"
                return
    raise ValueError("the self-test plan has no arc to flip")


MUTANTS = {"shift +100 in x": _shift_x,
           "first schedule entry only": _first_entry_only,
           "length +1e-3": _lengthen,
           "arc direction flipped": _flip_arc}


def run(cli_main, workdir: Path):
    """Plan the symmetric crossing with ``discmotion plan`` and gate the
    document and its mutants.  Returns {case: faults}; the unmutated plan
    must have none, every mutant at least one."""
    s, a0, b0, a1, b1 = CASE_FIXTURES["case2"]
    inst_path = workdir / "selftest-instance.json"
    plan_path = workdir / "selftest-plan.json"
    inst_path.write_text(json.dumps(
        {"s": s, "A0": a0, "B0": b0, "A1": a1, "B1": b1}))
    rc = cli_main(["plan", str(inst_path), "--out", str(plan_path)])
    if rc != 0:
        raise RuntimeError(f"discmotion plan exited {rc} on the self-test")
    doc = json.loads(plan_path.read_text())
    results = {"planned": gate.plan_faults(doc)}
    for name, mutate in MUTANTS.items():
        mutant = copy.deepcopy(doc)
        mutate(mutant)
        results[name] = gate.plan_faults(mutant)
    return results


def passed(results) -> bool:
    return not results["planned"] and all(
        results[name] for name in MUTANTS)


def main() -> int:
    import contextlib
    import io
    import tempfile

    import run as bench_run
    bench_run.import_program()
    from discmotion.cli import main as cli_main

    bench_run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-",
                                     dir=bench_run.OUT) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            results = run(cli_main, Path(tmp))
    for name, faults in results.items():
        expect = "accept" if name == "planned" else "reject"
        got = "reject" if faults else "accept"
        mark = "ok  " if expect == got else "FAIL"
        print(f"{mark} {name:<28} {got}"
              + (f"  ({faults[0]})" if faults else ""))
    ok = passed(results)
    print(f"gate self-test: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
