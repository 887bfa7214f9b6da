"""Spans and counts around the public calls into each layer of surfnitsche.

The benchmark measures the library from outside.  ``traced_lib`` wraps the
public entry points of the ``mesh``, ``assembly``, ``solve`` and
``analysis`` modules, ``TimedProblem`` wraps the problem object (the
``geometry`` layer), and ``replay_fem`` re-runs the element kernels of
``fem`` on the meshes a pass used.  Spans are kept in memory; a layer's
self time is its spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import surfnitsche as sn
from surfnitsche import fem

PLAIN_LIB = SimpleNamespace(
    build_mesh=sn.build_mesh,
    geometric_report=sn.geometric_report,
    assemble=sn.assemble,
    min_stable_beta_probe=sn.min_stable_beta_probe,
    solve_spd=sn.solve_spd,
    error_measures=sn.error_measures,
    convergence_study=sn.convergence_study,
)

LIB_LAYERS = {
    "build_mesh": "mesh",
    "geometric_report": "mesh",
    "assemble": "assembly",
    "min_stable_beta_probe": "assembly",
    "solve_spd": "solve",
    "error_measures": "analysis",
    "convergence_study": "analysis",
}

GEOMETRY_METHODS = (
    "chart",
    "closest_point",
    "signed_distance",
    "normal_at_closest",
    "project_to_boundary",
    "correct_to_boundary",
    "load_at",
    "solution_at",
    "solution_gradient_at",
    "dirichlet_at",
)

# Per-layer metrics that are sums of Tracer.counts over a traced pass.
COUNTED_METRICS = tuple(
    f"geometry.{method}.{kind}" for method in GEOMETRY_METHODS for kind in ("s", "calls", "points")
) + (
    "mesh.build_mesh.s",
    "mesh.geometric_report.s",
    "mesh.nodes",
    "mesh.elements",
    "fem.frames.s",
    "fem.tangent_gradients.s",
    "fem.tangent_gradients.flops",
    "fem.tangent_gradients.bytes",
    "assembly.assemble.s",
    "assembly.dof",
    "assembly.nnz",
    "assembly.min_stable_beta_probe.s",
    "assembly.probe.factorizations",
    "solve.solve_spd.s",
    "analysis.error_measures.s",
)

SOLVE_METHOD_CODES = {"direct": 1, "iterative": 2}

# Elements per frames() call in the replay: the chunk assembly uses.
REPLAY_CHUNK = 4096


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory spans, counts and per-call records of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.solves: list[tuple[float, sn.SolveReport]] = []
        self.meshes: list = []
        self._open: list[int] = []

    @contextmanager
    def span(self, layer, name):
        """Span ``<layer>.<name>``; its seconds add to the count ``<layer>.<name>.s``."""
        parent = self._open[-1] if self._open else None
        record = Span(f"{layer}.{name}", layer, time.perf_counter(), float("nan"), parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            self.counts[f"{record.name}.s"] += record.end - record.start

    def self_times(self):
        """Seconds per layer spent in its own spans and not in their children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = Counter()
        for span, covered in zip(self.spans, child_time):
            totals[span.layer] += span.end - span.start - covered
        return totals

    def top_level(self):
        return [span for span in self.spans if span.parent is None]


def _point_count(args, name):
    if name == "chart":
        return int(np.broadcast(*args[:2]).size)
    return int(np.size(args[0]) // 3)


class TimedProblem:
    """A problem whose geometry and data methods run inside spans.

    Every other attribute is forwarded unchanged, so the library sees the
    same problem.  Calls the problem makes on itself are not re-counted.
    """

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(self._problem, name)
        if name not in GEOMETRY_METHODS:
            return value
        tracer = self._tracer

        def timed(*args, **kwargs):
            with tracer.span("geometry", name):
                result = value(*args, **kwargs)
            tracer.counts[f"geometry.{name}.calls"] += 1
            tracer.counts[f"geometry.{name}.points"] += _point_count(args, name)
            return result

        return timed


def traced_lib(tracer: Tracer) -> SimpleNamespace:
    """PLAIN_LIB with each call in a span, recording the sizes it handled."""

    def wrap(name, func):
        layer = LIB_LAYERS[name]

        def traced(*args, **kwargs):
            with tracer.span(layer, name) as span:
                result = func(*args, **kwargs)
            _record(tracer, name, args, result, span.end - span.start)
            return result

        return traced

    return SimpleNamespace(**{name: wrap(name, f) for name, f in vars(PLAIN_LIB).items()})


def _record(tracer, name, args, result, seconds):
    counts = tracer.counts
    if name == "build_mesh":
        counts["mesh.nodes"] += result.num_nodes
        counts["mesh.elements"] += result.num_elements
        tracer.meshes.append(result)
    elif name == "assemble":
        counts["assembly.dof"] += result.dim
        counts["assembly.nnz"] += result.matrix.nnz
    elif name == "min_stable_beta_probe":
        counts["assembly.dof"] += args[0].num_nodes
        counts["assembly.probe.factorizations"] += len(result)
        tracer.meshes.append(args[0])
    elif name == "solve_spd":
        tracer.solves.append((seconds, result))


def replay_fem(meshes, problem, tracer: Tracer):
    """Re-run frames() and basis_tangent_gradients() at the assembly rule.

    Flops and bytes are computed from the array shapes, not counted:
    J G^-1 costs 2*3*2*2 flops per point and the product with the
    reference gradients 2*2 per (point, basis function, component); the
    kernel reads J, G^-1 and the gradients once and writes its result.
    """
    counts = tracer.counts
    for mesh in meshes:
        rule = sn.triangle_rule(2 * mesh.order + 2)
        grads = sn.ReferenceElement(mesh.order).grad(rule.points)
        for start in range(0, mesh.num_elements, REPLAY_CHUNK):
            ids = np.arange(start, min(start + REPLAY_CHUNK, mesh.num_elements))
            with tracer.span("fem", "frames"):
                bundle = fem.frames(mesh, problem, ids, rule.points)
            with tracer.span("fem", "tangent_gradients"):
                out = bundle.basis_tangent_gradients(grads)
            e, q, n, d = out.shape
            counts["fem.tangent_gradients.flops"] += 2 * e * q * (d * 2 * 2) + 2 * e * q * n * d * 2
            counts["fem.tangent_gradients.bytes"] += 8 * (
                bundle.jacobian.size + bundle.inv_metric.size + grads.size + out.size
            )


def solve_metrics(tracer: Tracer, levels: int):
    """solve.L<i>.* for the first ``levels`` solves of the pass, 0 where absent."""
    metrics = {}
    for level in range(levels):
        seconds, report = tracer.solves[level] if level < len(tracer.solves) else (0.0, None)
        metrics[f"solve.L{level}.solve_spd.s"] = seconds
        metrics[f"solve.L{level}.iterations"] = report.iterations if report else 0
        metrics[f"solve.L{level}.method"] = (
            SOLVE_METHOD_CODES.get(report.method, 9) if report else 0
        )
        metrics[f"solve.L{level}.relative_residual"] = report.relative_residual if report else 0.0
    return metrics
