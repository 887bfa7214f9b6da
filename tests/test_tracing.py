"""The benchmark's traced path runs against the current library.

``perfbench/tracing.py`` wraps the library's entry points and the problem
object by name, so a library change can break ``perfbench/run.py --trace 1``
without failing any library test.  This runs one tiny traced pipeline and
the fem replay through that module, imported from its file unchanged.
"""
import importlib.util
import sys
from pathlib import Path

import surfnitsche as sn

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """The tracing module, registered (its dataclass needs that) for one test."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_pipeline_and_replay_run(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    lib = tracing.traced_lib(tracer)
    plain = sn.TorusProblem()
    problem = tracing.TimedProblem(plain, tracer)
    mesh = lib.build_mesh(4, 2, problem)
    lib.geometric_report(mesh, problem)
    system = lib.assemble(mesh, 1e4, problem)
    report = lib.solve_spd(system)
    lib.error_measures(mesh, report.solution, problem)
    lib.min_stable_beta_probe(mesh, [1e4], problem)
    tracing.replay_fem(tracer.meshes, plain, tracer)
    tracing.solve_metrics(tracer, 4)
    tracer.self_times()
    assert tracer.counts["mesh.nodes"] == mesh.num_nodes
    assert tracer.counts["fem.tangent_gradients.flops"] > 0
