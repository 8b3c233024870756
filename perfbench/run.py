"""Benchmark of the royaltycap library and CLI.

    python3 perfbench/run.py --workload <simulate|certify|tabulated>
                             --seed <n> --seconds <s> --trace <0|1>

Runs from the source tree next to this directory (``src/``), never from an
installed copy, and exits 2 without a result when that tree is missing.
One run measures ``setup_s`` three times (in this process and in two fresh
child processes), prepares the workload, then repeats workload iterations
until ``--seconds`` have passed (at least one).  Every metric is the median
over the iterations.  ``--trace 1`` records spans around every call and
then times each layer on the workload's instances (see ``layers.py``); the
end-to-end metrics come from untraced runs.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The line before it is
a report with every metric of the workload, the failures, provenance, and,
when traced, the self time per layer and the trace file written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("simulate", "certify", "tabulated")
SETUP_CHILDREN = 2

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
PER_LAYER = (
    "import.total_s", "import.scipy_s", "config.parse_config_s", "dist.family_build_s",
    "dist.types_ppf_per_s", "dist.income_ppf_per_s", "dist.types_cdf_scalar_per_s",
    "mech.tables_build_s", "mech.tables_mb_per_agent", "mech.tables_lookup_per_s",
    "mech.virtual_value_s", "mech.audit_threshold_s", "mech.transfer_s",
    "mech.myerson_cash_revenue_s", "mech.full_extraction_revenue_s", "mech.quad_warnings",
    "verify.check_regularity_s", "verify.best_response_type_s",
    "verify.best_response_income_s", "sim.estimate_revenue_s", "sim.pool_startup_s",
    "cli.artifact_bytes", "trace.wall_s", "trace.span_count", "trace.overhead_s",
)


def unit(name: str) -> str:
    if "_per_s" in name:
        return "1/s"
    if "_mb" in name:
        return "MB"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up in this fresh process and print it")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def timed_setup(name: str, seed: int):
    """Import royaltycap, build the workload's instances and the first
    instance's MechanismTables; returns (seconds, workload)."""
    t0 = time.perf_counter()
    import royaltycap  # noqa: F401 - the import is part of what is timed
    import workloads
    wl = workloads.WORKLOADS[name](ROOT, seed)
    wl.setup()
    return time.perf_counter() - t0, wl


def setup_samples(args, first: float) -> list:
    """``first`` plus the set-up times of fresh child processes, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = [first]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    """HEAD of the checkout when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(wl) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "seed": wl.seed,
        "inputs": wl.params(),
    }


def span_cost() -> float:
    """Seconds one span costs, measured on a throwaway tracer."""
    from harness import Tracer
    t = Tracer("calibration")
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("x"):
            pass
    return (time.perf_counter() - t0) / n


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "royaltycap" / "__init__.py").is_file():
        print(f"error: no royaltycap source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)[0]}))
        return 0

    first, wl = timed_setup(args.workload, args.seed)
    import royaltycap
    if Path(royaltycap.__file__).resolve().parent != SRC / "royaltycap":
        print(f"error: royaltycap imported from {royaltycap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from harness import NullTracer, Recorder, Tracer
    from scipy.integrate import IntegrationWarning

    samples = setup_samples(args, first)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    rec = Recorder(tracer)
    rundir = OUT / f"run-{run_id}"
    rundir.mkdir(parents=True, exist_ok=True)
    iterations = []
    caught = warnings.catch_warnings(record=True) if args.trace else nullcontext([])
    try:
        with caught as quad_warnings:
            if args.trace:
                warnings.simplefilter("always", IntegrationWarning)
            with tracer.span("bench.prepare", workload=args.workload):
                once = wl.prepare(rec, rundir)
            start = time.perf_counter()
            while not iterations or time.perf_counter() - start < args.seconds:
                with tracer.span("bench.iteration", workload=args.workload,
                                 index=len(iterations)):
                    t0 = time.perf_counter()
                    m = wl.iteration(rec, rundir)
                    m["wall_s"] = time.perf_counter() - t0
                iterations.append(m)
            artifact_bytes = tree_bytes(rundir)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            layer = {}
            if args.trace:
                import layers
                with tracer.span("bench.layers", workload=args.workload):
                    layer = layers.measure(rec, wl, ROOT)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    found = {k: statistics.median(it[k] for it in iterations) for k in iterations[0]}
    found.update(once)
    found["setup_s"] = statistics.median(samples)
    found["peak_rss_mb"] = peak_rss_mb
    found["ops_failed_frac"] = rec.failed / rec.attempted
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "iterations": len(iterations),
              "setup_samples_s": samples, "provenance": provenance(wl),
              "failures": rec.failures}
    if args.trace:
        quad = [w for w in quad_warnings if issubclass(w.category, IntegrationWarning)]
        layer.update({
            "mech.quad_warnings": len(quad),
            "cli.artifact_bytes": artifact_bytes,
            "trace.wall_s": found["wall_s"],
            "trace.span_count": len(tracer.spans),
            "trace.overhead_s": len(tracer.spans) * span_cost(),
        })
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        report["self_s"] = tracer.self_times()
        found.update(layer)
        names = PER_LAYER
    else:
        names = END_TO_END
    report["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in sorted(found.items())}
    print(json.dumps({"report": report}))
    result = {"correct": rec.wrong == 0, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {k: {"value": found[k], "unit": unit(k)} for k in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
