"""Benchmark of surfnitsche: one workload per run, checked, with its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study_k3 --seed 0 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout.  Every run is one
process and one caller in a closed loop: passes of the workload run back
to back, at least three, until ``--seconds`` have passed.  Each pass is
checked (see ``workloads.py``); a pass that raises or fails a check
counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
median wall and CPU seconds of a pass, the peak resident memory of the
process, and the median of several set-up times (import plus a tiny
warm-up pipeline, in this process and in fresh child processes).
``--trace 1`` runs a plain and a traced pass, twice, replays the fem
kernels on the traced pass's meshes, reports the per-layer metrics and
writes the spans to ``.bench_out/`` in the checkout.

The last line of standard output is the result object; the lines before
it record the environment, the samples and every failed check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

# Recorded with the environment: the library runs at the BLAS thread
# count these leave it (OpenBLAS: one thread per core when unset), and
# PCG iteration counts repeat exactly only at a fixed count.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 3
TRACE_PAIRS = 2
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def set_up():
    """Import surfnitsche from src/ and run one tiny pipeline; returns seconds.

    The warm-up absorbs the lazy start of BLAS and LAPACK (up to 0.7 s on
    the first dense solve of a process), which would otherwise land on
    the first pass of whichever workload runs first.
    """
    start = time.perf_counter()
    if not (SRC / "surfnitsche" / "__init__.py").is_file():
        raise SystemExit(f"no surfnitsche sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import surfnitsche as sn

    if Path(sn.__file__).resolve().parent != SRC / "surfnitsche":
        raise SystemExit(f"imported surfnitsche from {sn.__file__}, not from {SRC}")
    problem = sn.TorusProblem()
    mesh = sn.build_mesh(4, 3, problem)
    sn.geometric_report(mesh, problem)
    system = sn.assemble(mesh, 1e4, problem)
    report = sn.solve_spd(system)
    sn.solve_spd(system, method="cg")
    sn.error_measures(mesh, report.solution, problem)
    sn.min_stable_beta_probe(mesh, [1e4], problem)
    return time.perf_counter() - start


def setup_samples(first):
    """``first`` plus set-up times of fresh processes, SETUP_SAMPLES in all."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


def _blas_info(package):
    """BLAS name, version and thread count of numpy or scipy."""
    import ctypes
    import glob

    try:
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # releases before numpy 1.25 / scipy 1.11
        info = {}
    threads = None
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_info(numpy),
        "scipy_blas": _blas_info(scipy),
        "blas_thread_variables": {var: os.environ.get(var) for var in BLAS_THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def src_lines():
    """Lines of the library's Python sources (the simplicity tracker)."""
    return sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))


def run_pass(workload, run, lib, problem):
    """One pass: (wall seconds, CPU seconds, failed checks, outcome)."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        outcome = run(lib, problem)
    except Exception:  # a failed pass is counted, and the loop goes on
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return wall, cpu, [traceback.format_exc()], None
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    try:
        problems = workload.check(outcome)
    except Exception:
        problems = [traceback.format_exc()]
    return wall, cpu, problems, outcome


def closed_loop(workload, lib, seconds, min_passes=MIN_PASSES):
    """Passes back to back until ``seconds`` and ``min_passes`` are reached."""
    walls, cpus, failures = [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        wall, cpu, problems, _ = run_pass(workload, workload.run, lib, workload.problem)
        walls.append(wall)
        cpus.append(cpu)
        if problems:
            failures.append(problems)
    return walls, cpus, failures


def timed_run(workload, seconds, setup_s):
    from tracing import PLAIN_LIB

    walls, cpus, failures = closed_loop(workload, PLAIN_LIB, seconds)
    setups = setup_samples(setup_s)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups}
    return metrics, len(walls), failures, samples


def traced_run(workload):
    """Plain and traced passes in turn, twice; spans of the faster traced pass.

    The tracing overhead compares the faster pass of each kind, which
    keeps the first pass's page faults and a neighbour's burst out of it.
    A pass that failed is short, and a failed traced pass has partial
    spans, so a failed pass is chosen only if both of its kind failed.
    """
    from tracing import (
        COUNTED_METRICS,
        PLAIN_LIB,
        Tracer,
        TimedProblem,
        replay_fem,
        solve_metrics,
        traced_lib,
    )

    untraced, traced, failures = [], [], []
    for _ in range(TRACE_PAIRS):
        wall, _, problems, _ = run_pass(workload, workload.run, PLAIN_LIB, workload.problem)
        untraced.append((bool(problems), wall))
        pass_tracer = Tracer()
        lib, problem = traced_lib(pass_tracer), TimedProblem(workload.problem, pass_tracer)
        wall, _, traced_problems, _ = run_pass(workload, workload.run_stages, lib, problem)
        traced.append((bool(traced_problems), wall, pass_tracer))
        failures += [found for found in (problems, traced_problems) if found]
    _, traced_wall, tracer = min(traced, key=lambda entry: entry[:2])
    _, untraced_wall = min(untraced)
    stages = tracer.top_level()
    stage_sum = sum(span.end - span.start for span in stages)
    replay_fem(tracer.meshes, workload.problem, tracer)
    counts = tracer.counts

    metrics = {name: counts[name] for name in COUNTED_METRICS}
    metrics.update(solve_metrics(tracer, 4))
    if workload.name == "study_k3":
        metrics["analysis.convergence_study.s"] = untraced_wall
        for span in stages[-4:]:
            metrics[f"north_star.{span.name.split('.', 1)[1]}.s"] = span.end - span.start
    else:
        metrics["analysis.convergence_study.s"] = 0.0
        for stage in ("build_mesh", "assemble", "solve_spd", "error_measures"):
            metrics[f"north_star.{stage}.s"] = 0.0
    self_times = tracer.self_times()
    for layer in ("geometry", "mesh", "fem", "assembly", "solve", "analysis"):
        metrics[f"self.{layer}.s"] = self_times[layer]
    metrics.update(
        {
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.stage_sum_s": stage_sum,
            "trace.unaccounted_s": traced_wall - stage_sum,
            "trace.spans": len(tracer.spans),
            "src.lines": src_lines(),
        }
    )
    return metrics, 2 * TRACE_PAIRS, failures, tracer


def write_trace(path, record, tracer):
    record = dict(record, spans=[vars(span) for span in tracer.spans])
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("study_k3", "mesh_quality", "penalty_scan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.setup_only:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    setup_s = set_up()
    if args.setup_only:
        print(repr(setup_s))
        return 0

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    workload = workloads.make_workload(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failures, tracer = traced_run(workload)
        samples = {}
    else:
        metrics, attempted, failures, samples = timed_run(workload, args.seconds, setup_s)
    if set(metrics) != {entry["name"] for entry in declared}:
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ {e['name'] for e in declared})} "
            "differ between this script and BENCHMARK.json"
        )

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "passes": attempted,
        "fail_ratio": len(failures) / attempted,
        "src.lines": src_lines(),
        "samples": samples,
        "failures": failures,
    }
    if args.trace:
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, dict(record, metrics=metrics), tracer)
        record["trace_file"] = str(path.relative_to(ROOT))
    for problems in failures:
        for problem in problems:
            print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
