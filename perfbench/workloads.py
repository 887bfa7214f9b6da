"""The benchmark's workloads: inputs made from a seed, one pass, its checks.

Every workload is a closed loop with one caller: a pass starts only when
the previous one has returned.  A pass calls the public functions of
``surfnitsche`` through ``lib``, which holds either the plain functions
or span-wrapped ones for a traced run (see ``tracing.py``).  ``check``
returns the list of failed checks of a pass outcome; an empty list means
the pass was correct.

Only the seed-0 reference values depend on the seed; every other check
must hold for every seed.
"""
from __future__ import annotations

import dataclasses

import numpy as np

import surfnitsche as sn

BETA = 1e4

# Seeds other than 0 scale the default boundary amplitude (0.2) by a
# factor in [1 - spread, 1 + spread].  Both ends of that range were
# checked to mesh validly at every size below, to keep the facet-linear
# fold at n_div 16 and its absence at n_div 64, and to leave the dof and
# the PCG iteration counts within 2 % of seed 0.
AMPLITUDE_SPREAD = 0.05


def make_problem(seed: int) -> sn.TorusProblem:
    """Wavy torus band of a seed; seed 0 is the default ``TorusProblem()``."""
    problem = sn.TorusProblem()
    if seed == 0:
        return problem
    factor = 1.0 + AMPLITUDE_SPREAD * np.random.default_rng(seed).uniform(-1.0, 1.0)
    boundary = dataclasses.replace(
        problem.boundary, amplitude=problem.boundary.amplitude * factor
    )
    return sn.TorusProblem(problem.torus, boundary)


def _relative_mismatch(values, reference, rtol):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return f"shape {values.shape} != reference shape {reference.shape}"
    worst = float(np.max(np.abs(values - reference) / np.abs(reference)))
    return None if worst <= rtol else f"relative deviation {worst:.3e} > {rtol:.0e}"


def _in_range(label, value, bounds):
    low, high = bounds
    return None if low <= value <= high else f"{label} {value:.3f} outside [{low}, {high}]"


# Errors of convergence_study(3, 4, 1e4, TorusProblem(), base_divisions=8).
STUDY_K3_REFERENCE = {
    "l2": [
        0.5217633458204053,
        0.037343196887715834,
        0.0025382471780196554,
        0.00016167997205061185,
    ],
    "energy": [
        15.379475882171851,
        2.5592128292335183,
        0.36152980727891654,
        0.04422054492708202,
    ],
}


@dataclasses.dataclass
class StudyK3:
    """The paper's headline: a four-level k = 3 convergence study.

    dof run from 1,176 to 73,920; the last level is the north-star case
    (k = 3, n_div = 64).  Solve, the fem kernels inside assembly and error
    measurement, and mesh plus geometry share the time.
    """

    problem: sn.TorusProblem
    reference: dict | None
    order: int = 3
    levels: int = 4
    base_divisions: int = 8
    energy_eoc: tuple = (2.75, 3.4)
    l2_eoc: tuple = (3.75, 4.4)

    name = "study_k3"

    def run(self, lib, problem):
        records = lib.convergence_study(
            self.order, self.levels, BETA, problem, base_divisions=self.base_divisions
        )
        return [(rec.dof, rec.l2_error, rec.energy_error) for rec in records]

    def run_stages(self, lib, problem):
        """The same pass, calling the four stages per level as the study does."""
        rows = []
        for level in range(self.levels):
            mesh = lib.build_mesh(self.base_divisions * 2**level, self.order, problem)
            system = lib.assemble(mesh, BETA, problem)
            report = lib.solve_spd(system)
            err = lib.error_measures(mesh, report.solution, problem)
            rows.append((mesh.num_nodes, err.l2_error, err.energy_error))
        return rows

    def check(self, rows):
        l2 = [row[1] for row in rows]
        energy = [row[2] for row in rows]
        energy_eoc = float(np.log2(energy[-2] / energy[-1]))
        l2_eoc = float(np.log2(l2[-2] / l2[-1]))
        problems = [
            _in_range("finest energy EOC", energy_eoc, self.energy_eoc),
            _in_range("finest L2 EOC", l2_eoc, self.l2_eoc),
        ]
        if self.reference is not None:
            for key, values in (("l2", l2), ("energy", energy)):
                mismatch = _relative_mismatch(values, self.reference[key], 1e-8)
                problems.append(mismatch and f"{key} errors vs seed-0 reference: {mismatch}")
        return [p for p in problems if p]


def _finest_order(values, sizes):
    return float(np.log(values[-2] / values[-1]) / np.log(sizes[-2] / sizes[-1]))


# The criterion-4 sweep, and the facet-linear builds that must fold at
# FACET_FOLDS and be valid at FACET_VALID.
SWEEP_ORDERS = (1, 2, 3)
SWEEP_DIVISIONS = (8, 16, 32, 64)
FACET_ORDERS = (2, 3)
FACET_FOLDS = 16
FACET_VALID = 64


@dataclasses.dataclass
class MeshQuality:
    """The geometric-order sweep: build_mesh + geometric_report only.

    k = 1, 2, 3 at n_div = 8, 16, 32, 64 on the chart, plus facet-linear
    builds for k = 2, 3 that must fold at n_div 16 and be valid at 64.
    No assembly or solve runs, so a solver or stiffness-kernel change
    should leave this workload unchanged.
    """

    problem: sn.TorusProblem

    name = "mesh_quality"

    def run(self, lib, problem):
        sweeps = {}
        for order in SWEEP_ORDERS:
            rows = []
            for n_div in SWEEP_DIVISIONS:
                mesh = lib.build_mesh(n_div, order, problem)
                rows.append((mesh.h, lib.geometric_report(mesh, problem)))
            sweeps[order] = rows
        folded = {}
        for order in FACET_ORDERS:
            try:
                lib.build_mesh(FACET_FOLDS, order, problem, "facet-linear")
                folded[order] = False
            except sn.MeshInvalidError:
                folded[order] = True
            lib.build_mesh(FACET_VALID, order, problem, "facet-linear")
        return sweeps, folded

    run_stages = run

    def check(self, outcome):
        sweeps, folded = outcome
        problems = []
        for order, rows in sweeps.items():
            sizes = [h for h, _ in rows]
            reports = [rep for _, rep in rows]
            for label, field, bounds in (
                ("surface distance", "max_rho", (order + 0.6, order + 1.4)),
                ("normal deviation", "max_normal_dev", (order - 0.4, order + 0.4)),
                ("boundary distance", "max_boundary_dist", (order + 0.6, order + 1.4)),
            ):
                rate = _finest_order([getattr(rep, field) for rep in reports], sizes)
                problems.append(_in_range(f"k={order} {label} order", rate, bounds))
            node_dist = max(rep.max_boundary_node_dist for rep in reports)
            if not node_dist < 1e-10:
                problems.append(f"k={order} boundary node distance {node_dist:.2e} >= 1e-10")
        for order, did_fold in folded.items():
            if not did_fold:
                problems.append(f"facet-linear k={order} n_div={FACET_FOLDS} did not fold")
        return [p for p in problems if p]


@dataclasses.dataclass
class PenaltyScan:
    """min_stable_beta_probe over a 17-point beta grid on five small meshes.

    Each mesh (dim 528 to 2,080) is assembled once and factorized 17 times
    with no triangular solves: many small dense factorizations, where
    per-call overhead and O(n^3) work dominate.  The meshes are inputs,
    built once before the timed passes.
    """

    problem: sn.TorusProblem
    reference: dict | None
    cases: tuple = ((1, 16), (1, 32), (2, 8), (2, 16), (3, 8))
    grid: np.ndarray = dataclasses.field(default_factory=lambda: np.geomspace(1.0, 1e4, 17))

    name = "penalty_scan"

    def __post_init__(self):
        self.meshes = [sn.build_mesh(n_div, order, self.problem) for order, n_div in self.cases]

    def run(self, lib, problem):
        return [lib.min_stable_beta_probe(mesh, self.grid, problem) for mesh in self.meshes]

    run_stages = run

    def check(self, tables):
        problems = []
        first_stable = []
        for (order, n_div), table in zip(self.cases, tables):
            flags = [flag for _, flag in table]
            label = f"k={order} n_div={n_div}"
            if True in flags and not all(flags[flags.index(True):]):
                problems.append(f"{label}: flags {flags} not upward closed")
            if not flags[-1]:
                problems.append(f"{label}: beta={table[-1][0]:g} not stable")
            first_stable.append(next((beta for beta, flag in table if flag), np.inf))
        if self.reference is not None:
            if not np.allclose(first_stable, self.reference["first_stable"], rtol=1e-9):
                problems.append(
                    f"first stable betas {np.round(first_stable, 1).tolist()} != seed-0 reference "
                    f"{np.round(self.reference['first_stable'], 1).tolist()}"
                )
        return problems


# First stable grid points 10^(5/4), 10^(5/4), 10^(7/4), 10^(7/4), 10^2.
PENALTY_SCAN_REFERENCE = {"first_stable": [10**1.25, 10**1.25, 10**1.75, 10**1.75, 100.0]}

REFERENCES = {"study_k3": STUDY_K3_REFERENCE, "penalty_scan": PENALTY_SCAN_REFERENCE}
WORKLOADS = {"study_k3": StudyK3, "mesh_quality": MeshQuality, "penalty_scan": PenaltyScan}


def make_workload(name: str, seed: int):
    """The named workload on the seed's problem; reference values at seed 0 only."""
    problem = make_problem(seed)
    if name not in REFERENCES:
        return WORKLOADS[name](problem)
    return WORKLOADS[name](problem, REFERENCES[name] if seed == 0 else None)
