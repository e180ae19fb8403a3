"""cpdkit benchmark: one workload, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that prints the per-layer metrics.  Both
print every metric by name with its unit, then, as the last line, one JSON
object with the metrics listed in ``BENCHMARK.json``.  Spans, results and
the exact-repeat fingerprints go under ``.perfbench_out/`` in the checkout;
``perfbench/report.py`` summarises the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

E2E_UNITS = {
    "decompose_s": "s", "problems_per_min": "1/min", "setup_s": "s",
    "peak_rss_mb": "MB", "gcr_pct": "%", "fit_noiseless": "fit",
    "msir_db": "dB", "failed_pct": "%",
}
# Counts and computed work: identical on every run with the same seed.
EXACT_METRICS = (
    "uniqueness.mode_rank_calls", "tensor.matricize_calls", "als.restarts",
    "als.sweeps", "als.converged_restarts", "als.useful_sweep_ratio",
    "als.mttkrp_gflop", "linalg.khatri_rao_calls", "linalg.khatri_rao_gb",
    "krproj.columns",
)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the processors this process may use.  Must run
    before NumPy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(n)
    return n


def import_package():
    """Import cpdkit from this checkout's sources, never from elsewhere."""
    if not (SRC / "cpdkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC}; run from the "
                 "root of a cpdkit checkout")
    sys.path.insert(0, str(SRC))
    import cpdkit
    import cpdkit.cli  # noqa: F401  (not imported by the package itself)
    if Path(cpdkit.__file__).resolve().parent != SRC / "cpdkit":
        sys.exit(f"perfbench: imported cpdkit from {cpdkit.__file__}, "
                 f"expected {SRC / 'cpdkit'}")
    return cpdkit


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@dataclass
class Outcome:
    index: int
    seconds: float
    error: str | None = None
    quality: dict | None = None
    returned: object = None


def decompose(wl, w, seed, index, workdir, tracer=None) -> Outcome:
    """One timed decomposition plus its checks.  A failure of any kind is
    counted and reported; the run goes on."""
    p = wl.problem(w, seed, index, workdir)
    Y = wl.observed(w, p)
    seconds = float("nan")
    traced = (tracer.installed(wl.cpdkit, index) if tracer
              else contextlib.nullcontext())
    try:
        t0 = perf_counter()
        with traced:
            raw = wl.call(w, p, Y)
        seconds = perf_counter() - t0
        if tracer and w.direct:  # no registered solver: record the solve here
            tracer.add_restart(index, raw.report, raw.report.runtime_s,
                               Y.shape, w.rank)
        est, returned = wl.check(w, p, Y, raw)
        return Outcome(index, seconds, quality=wl.score(w, p, Y, est),
                       returned=returned)
    except Exception as e:  # the benchmark's boundary: count, report, go on
        traceback.print_exc(file=sys.stderr)
        return Outcome(index, seconds, error=f"{type(e).__name__}: {e}")


def run_setup(w, seed, workdir, repeats) -> list[float]:
    """Time the whole set-up in a fresh interpreter: imports, problem
    generation, writing the problem files and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           w.name, "--seed", str(seed), "--seconds", "0", "--trace", "0",
           "--setup-into", str(workdir)]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=170, cwd=ROOT)
        times.append(perf_counter() - t0)
    return times


def timed_run(wl, w, seed, seconds, workdir):
    """Closed loop over the run's problems in order, repeating them while
    the time lasts.  Quality comes from the first pass; every repeat must
    reproduce it exactly."""
    outcomes = []
    first = {}
    start = perf_counter()
    while True:
        k = len(outcomes)
        if k >= w.problems:
            elapsed = perf_counter() - start
            if elapsed + elapsed / k > seconds:
                break
        o = decompose(wl, w, seed, k % w.problems, workdir)
        if o.error is None:
            if o.index not in first:
                first[o.index] = o.quality
            elif o.quality != first[o.index]:
                o.error = (f"repeat of problem {o.index} gave {o.quality}, "
                           f"first pass gave {first[o.index]}")
        outcomes.append(o)
    return outcomes, first


def quality_metrics(wl, outcomes, first) -> dict:
    ok = [o.seconds for o in outcomes if o.error is None]
    q = list(first.values())
    failed = sum(o.error is not None for o in outcomes)
    m = {
        "gcr_pct": 100.0 * sum(x["fit_noiseless"] >= wl.GCR_THRESHOLD
                               for x in q)
        / len({o.index for o in outcomes}),
        "failed_pct": 100.0 * failed / len(outcomes),
    }
    if q:
        m["fit_noiseless"] = statistics.fmean(x["fit_noiseless"] for x in q)
        m["msir_db"] = statistics.fmean(x["msir_db"] for x in q)
    if ok:
        m["decompose_s"] = statistics.median(ok)
        m["problems_per_min"] = 60.0 * len(ok) / sum(ok)
    return m


def traced_run(wl, tr, w, seed, workdir):
    """Each of the first problems untraced and traced, alternating which
    goes first; the pair gives the tracing overhead and must agree exactly."""
    tracer = tr.Tracer()
    outcomes = []
    first = {}
    returned = {}
    pairs = []
    for i in range(w.trace_problems):
        if i % 2:
            traced = decompose(wl, w, seed, i, workdir, tracer)
            plain = decompose(wl, w, seed, i, workdir)
        else:
            plain = decompose(wl, w, seed, i, workdir)
            traced = decompose(wl, w, seed, i, workdir, tracer)
        if plain.error is None and traced.error is None:
            if traced.quality != plain.quality:
                traced.error = (f"traced run of problem {i} gave "
                                f"{traced.quality}, untraced {plain.quality}")
            else:
                first[i] = plain.quality
                returned[i] = traced.returned
                pairs.append((plain.seconds, traced.seconds))
        outcomes += [plain, traced]
    m = tr.layer_metrics(tracer, returned) if returned else {}
    if pairs:
        base = statistics.median(p for p, _ in pairs)
        m["trace.overhead_pct"] = 100.0 * (
            statistics.median(t for _, t in pairs) - base) / base
    m["trace.nesting_violations"] = tracer.nesting_violations()
    tracer.dump(OUT / f"spans-{w.name}-seed{seed}.json")
    return outcomes, first, m


def code_hash() -> str:
    """Digest of the package and benchmark sources: exact repeats are only
    expected between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("cpdkit/*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(w, seed, trace, first, metrics) -> list[str]:
    """Compare quality and counts with an earlier run of the same code and
    seed in this checkout, then record this run's values."""
    path = OUT / f"fingerprint-{w.name}-seed{seed}-{code_hash()}.json"
    old = json.loads(path.read_text()) if path.is_file() else {}
    new = {"quality": {str(i): q for i, q in first.items()}}
    if trace:
        new["counts"] = {k: metrics[k] for k in EXACT_METRICS if k in metrics}
    problems = []
    for part, values in new.items():
        before = old.get(part, {})
        for key, value in values.items():
            if key in before and before[key] != value:
                problems.append(f"{part} {key}: {value!r} now, "
                                f"{before[key]!r} in an earlier run")
            before[key] = value
        old[part] = before
    path.write_text(json.dumps(old, indent=1, sort_keys=True))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    threads = cap_blas_threads()
    cpdkit = import_package()
    import numpy as np
    import scipy

    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: "
                 f"{sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    if args.setup_into:
        wl.write_problems(w, args.seed, Path(args.setup_into))
        wl.warm_up()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    try:
        setup = run_setup(w, args.seed, workdir,
                          1 if args.trace else SETUP_REPEATS)
        wl.warm_up()
        if args.trace:
            outcomes, first, metrics = traced_run(wl, tr, w, args.seed,
                                                  workdir)
            units = {}
        else:
            outcomes, first = timed_run(wl, w, args.seed, args.seconds,
                                        workdir)
            metrics = quality_metrics(wl, outcomes, first)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {**units, **{m["name"]: m["unit"] for m in wanted}}
    problems = check_repeat(w, args.seed, args.trace, first, metrics)
    problems += [f"{o.index}: {o.error}" for o in outcomes if o.error]
    if metrics.get("trace.nesting_violations"):
        problems.append(f"{metrics['trace.nesting_violations']} spans "
                        "outside their parent")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")

    manifest = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas_env": {v: os.environ[v] for v in BLAS_ENV},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "code_hash": code_hash(),
        "load": "one process, closed loop, one decomposition at a time",
        "setup_runs_s": setup,
        "decompositions": [{"problem": o.index, "seconds": o.seconds,
                            "error": o.error} for o in outcomes],
        "workloads": {name: x.manifest() for name, x in wl.WORKLOADS.items()},
    }
    print("manifest " + json.dumps(manifest))
    for name in sorted(metrics):
        print(f"{w.name} {name} {metrics[name]!r} {units.get(name, '')}")
    for p in problems:
        print(f"{w.name} CHECK FAILED {p}")
    failed = sum(o.error is not None for o in outcomes)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]),
                                "unit": m["unit"]} for m in wanted},
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-trace{args.trace}-seed{args.seed}-"
               f"{os.getpid()}.json").write_text(json.dumps(
        {"manifest": manifest, "metrics": metrics, "units": units,
         "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
