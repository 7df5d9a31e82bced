"""Benchmark of the formsteklov package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  Workloads (see ``workloads.py``):

  verify-plane     CLI ``verify`` on disk, ellipse, annulus (2-d mix)
  verify-box       CLI ``verify`` on a box (3-d Schur reductions)
  harmonic-scalar  exit time and mean-value gap up to the 262k-tet ball

Closed loop, one client, serial ``--deterministic`` path: whole passes run
back to back until ``--seconds`` have elapsed (at least one pass).  The seed
draws the domain parameters; mesh levels are fixed, so the work per pass is
fixed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing formsteklov, numpy and scipy plus a warm-up
solve on the level-2 disk), ``pass_s`` (median pass wall time), ``peak_rss_mb``
(peak resident memory of this process), ``ref_rel_err`` (largest relative
deviation from the workload's analytic reference) and ``ok_share`` (share of
operations that passed the correctness gate; ``failed_share`` is one minus
it and is printed too).  ``--trace 1`` runs untraced passes, then the same
number of seconds of traced passes, and reports the per-layer metrics of
``tracing.py`` (medians over traced passes) with the tracing overhead.

Every metric is printed as ``metric <name> <value> <unit>``; the last line
is one JSON object with keys correct, attempted, failed and metrics.  The
full result with the machine context, and the spans of a traced run, are
written under ``perfbench/out/``.  Exit code 2 when the package cannot be
loaded from the checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
# One BLAS thread: on a 2-core shared machine a two-thread pool gave no
# faster median and a wider run-to-run spread.
BLAS_THREADS = "1"
# A fresh interpreter runs load_package() and prints the wall clock when it
# is done; the parent subtracts its own clock from before the spawn.  (Timing
# the wait itself would round to the 50 ms poll step of a wait with timeout.)
SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
               "run.load_package(); print(repr(time.time()))")


def load_package():
    """Import formsteklov from this checkout's source tree, plus a tiny
    solve that loads SuperLU and LAPACK and starts the BLAS pool."""
    if not (SRC / "formsteklov" / "__init__.py").is_file():
        raise ImportError(f"no formsteklov package under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of the measured set-up)
    import scipy  # noqa: F401
    import formsteklov
    import formsteklov.cli
    if Path(formsteklov.__file__).resolve().parent != SRC / "formsteklov":
        raise ImportError(f"formsteklov loaded from {formsteklov.__file__}")
    K = formsteklov.mesh.generate(formsteklov.mesh.disk(2))
    formsteklov.steklov.solve_primal(K, 0)
    formsteklov.steklov.solve_primal(K, 1)
    return formsteklov


def measure_setup(samples):
    """Seconds from spawning a fresh interpreter until it has run
    load_package, ``samples`` times in sequence."""
    times = []
    for _ in range(samples):
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE)],
                              check=True, timeout=120, capture_output=True,
                              text=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


class Pass(NamedTuple):
    seconds: float
    outcome: object          # workloads.PassOutcome
    layer: tuple | None      # (per-layer metrics, ratio bases) when traced
    rss_mb: float            # peak resident memory of the process so far


def run_passes(pkg, workload, seconds, tracer=None, untraced_s=None):
    """Closed loop of whole passes: one, then more while the next is
    expected (at the median pass time so far) to end within ``seconds``.
    With a tracer installed each pass gets its own counters."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p.seconds for p in passes)
                         <= seconds):
        tmp = tempfile.mkdtemp(prefix="pass-", dir=OUT)
        try:
            gc.collect()
            if tracer is not None:
                tracer.begin_pass()
            t0 = time.perf_counter()
            outcome = workload.run(pkg, tmp)
            dt = time.perf_counter() - t0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        layer = tracer.metrics(dt, untraced_s) if tracer is not None else None
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(Pass(dt, outcome, layer, rss_mb))
    return passes


def high_percentile(times):
    """Highest whole percentile with at least ten samples above it, or None
    when the sample count supports none beyond the median."""
    n = len(times)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_context():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None):
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="coarse levels, few checks, one set-up sample "
                         "(for the benchmark's tests)")
    args = ap.parse_args(argv)

    try:
        pkg = load_package()
    except ImportError as exc:
        print(f"error: cannot load formsteklov: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    context = machine_context()
    print("context " + json.dumps(context, sort_keys=True))
    print("inputs " + json.dumps(workload.inputs))

    passes = run_passes(pkg, workload, args.seconds)
    times = [p.seconds for p in passes]
    pass_s = statistics.median(times)
    spans_name = None
    if args.trace:
        from tracing import PER_LAYER, Tracer, span_cost
        with Tracer(pkg) as tracer:
            traced = run_passes(pkg, workload, args.seconds, tracer, pass_s)
        cost = span_cost()
        for p in traced:
            values = p.layer[0]
            values["cli.report_bytes"] = p.outcome.report_bytes
            values["trace.span_cost_s"] = values["trace.spans"] * cost
        metrics = {name: (statistics.median(p.layer[0][name] for p in traced),
                          unit)
                   for name, (unit, _) in PER_LAYER.items()}
        ratio_bases = traced[-1].layer[1]
        spans_name = f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(OUT / spans_name)
        passes += traced
    outcomes = [p.outcome for p in passes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if not args.trace:
        setup = measure_setup(1 if args.smoke else SETUP_SAMPLES)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (pass_s, "s"),
            # the first pass's peak: later passes reuse freed heap unevenly
            "peak_rss_mb": (passes[0].rss_mb, "MB"),
            "ref_rel_err": (max(o.ref_rel_err for o in outcomes), "ratio"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
        ratio_bases = {"ok_share": (attempted - failed, attempted)}

    for o in outcomes:
        for note in o.notes:
            print(f"failed: {note}", file=sys.stderr)
    high = high_percentile(times)
    print(f"passes {len(times)} untraced, median {pass_s:.4f} s, "
          + (f"p{high[0]} {high[1]:.4f} s" if high else
             "no percentile above the median has ten samples beyond it"))
    for key, value in outcomes[0].outputs.items():
        print(f"output {key} {value}")
    print(f"output failed_share {failed / attempted} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        base = ratio_bases.get(name)
        print(f"metric {name} {value} {unit}"
              + (f" ({base[0]}/{base[1]})" if base else ""))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs": workload.inputs, "context": context,
              "pass_s": [p.seconds for p in passes], "spans": spans_name,
              **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
