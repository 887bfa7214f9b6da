"""Self-test of the benchmark's failure accounting, at tiny sizes.

    python3 perfbench/selftest.py

Runs tiny study_k3 and penalty_scan workloads through the closed loop
the benchmark uses.  With reference values taken from the library no
pass may fail; with one reference value made wrong, or with a pass that
raises, every pass must fail and the loop must still run every pass, so
fail_ratio rises to 1.  Exits with status 1 if any expectation is missed.
"""
from __future__ import annotations

import dataclasses
import sys

import run

PASSES = 2


def fail_ratio(workload, lib):
    walls, _, failures = run.closed_loop(workload, lib, seconds=0.0, min_passes=PASSES)
    if len(walls) != PASSES:
        raise AssertionError(f"loop ran {len(walls)} passes, expected {PASSES}")
    return len(failures) / len(walls)


def main():
    run.set_up()
    import numpy as np

    import workloads
    from tracing import PLAIN_LIB

    problem = workloads.make_problem(0)
    scan = workloads.PenaltyScan(
        problem, None, cases=((1, 4), (2, 4)), grid=np.geomspace(1.0, 1e4, 5)
    )
    tables = scan.run(PLAIN_LIB, problem)
    first = [next(beta for beta, flag in table if flag) for table in tables]
    # Wide EOC bounds: these meshes are pre-asymptotic; only the
    # reference comparison is under test.
    study = workloads.StudyK3(
        problem, None, order=1, levels=3, base_divisions=4,
        energy_eoc=(-np.inf, np.inf), l2_eoc=(-np.inf, np.inf),
    )
    rows = study.run(PLAIN_LIB, problem)
    l2, energy = [row[1] for row in rows], [row[2] for row in rows]
    wrong_first = [first[0] * 10] + first[1:]
    wrong_l2 = [l2[0] * 1.01] + l2[1:]

    cases = [
        ("penalty_scan, right reference", scan, {"first_stable": first}, 0.0),
        ("penalty_scan, one wrong reference", scan, {"first_stable": wrong_first}, 1.0),
        ("study_k3, right reference", study, {"l2": l2, "energy": energy}, 0.0),
        ("study_k3, one wrong reference", study, {"l2": wrong_l2, "energy": energy}, 1.0),
        ("study_k3, pass raises (order 4)", dataclasses.replace(study, order=4), None, 1.0),
    ]
    missed = 0
    for label, workload, reference, expected in cases:
        workload = dataclasses.replace(workload, reference=reference)
        ratio = fail_ratio(workload, PLAIN_LIB)
        ok = ratio == expected
        missed += not ok
        print(f"[{'ok' if ok else 'MISSED'}] {label}: fail_ratio {ratio} (expected {expected})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
