"""Monte-Carlo comparison harness for the direct and mode-reduced solvers.

Each run draws a fresh ground truth and noise realization from per-run
substreams of the master seed, hands the same observed tensor to every
method, and records fits, mean SIR, runtime and (for the mode-reduced
pipeline) the bound diagnostics.  Rows are written to CSV with
repr-precision floats so identical seeds give identical files apart from
the runtime column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .als import SolverOptions, cp_als
from .ktensor import fit, msir, reconstruct
from .linalg import _as_count, _as_counts, _as_real
from .mrcpd import INNER_MAX_ITERS, MrcpdOptions, mrcpd_decompose
from .synth import add_noise, gen_bottleneck_ktensor, gen_random_ktensor

CSV_COLUMNS = ("method", "run", "fit_noiseless", "fit_observed", "msir_mean",
               "runtime_s", "converged", "eps_k", "bound_slack")

BENCH_METHODS = ("als", "mrcpd")
BENCH_TOL = 1e-8
BENCH_ALS_MAX_ITERS = 100     # the direct solver's sweep cap only
GCR_THRESHOLD = 0.99
MRCPD_BENCH_RESTARTS = 6


@dataclass
class BenchConfig:
    name: str                     # "sim1" | "sim2"
    shape: tuple[int, ...]        # each >= 3, the bottleneck generator's floor
    rank: int
    snr_db: float | None
    runs: int
    seed: int

    def __post_init__(self):
        if self.name not in ("sim1", "sim2"):
            raise ValueError(f"name must be sim1 or sim2, got {self.name!r}")
        self.shape = _as_counts(self.shape, "mode sizes", 3, min_len=2)
        self.rank = _as_count(self.rank, "rank", 1)
        if self.snr_db is not None:
            self.snr_db = _as_real(self.snr_db, "snr_db")
        self.runs = _as_count(self.runs, "runs", 1)
        self.seed = _as_count(self.seed, "seed", 0)


@dataclass
class RunRecord:
    method: str
    run: int
    fit_noiseless: float
    fit_observed: float
    msir_mean: float
    runtime_s: float
    converged: bool
    eps_k: float | None = None
    bound_slack: float | None = None


def sim1_config(runs: int, seed: int, scale: int = 20) -> BenchConfig:
    """Underdetermined random-factor setup: order 5, rank 48, 20 dB noise."""
    return BenchConfig(name="sim1", shape=(scale,) * 5, rank=48, snr_db=20.0,
                       runs=runs, seed=seed)


def sim2_config(runs: int, seed: int, scale: int = 50) -> BenchConfig:
    """Bottleneck setup: order 5, rank 5, collinear factors, 20 dB noise."""
    return BenchConfig(name="sim2", shape=(scale,) * 5, rank=5, snr_db=20.0,
                       runs=runs, seed=seed)


def _gen_truth(cfg: BenchConfig, seed):
    if cfg.name == "sim2":
        return gen_bottleneck_ktensor(cfg.shape[0], cfg.rank, seed)
    return gen_random_ktensor(cfg.shape, cfg.rank, seed)


def _mean_msir(truth, est) -> float:
    return float(np.mean([msir(truth.factors[n], est.factors[n])
                          for n in range(truth.order)]))


def run_benchmark(cfg: BenchConfig, out_csv=None) -> list[RunRecord]:
    if not isinstance(cfg, BenchConfig):
        raise ValueError(f"cfg must be a BenchConfig, got {cfg!r}")
    records: list[RunRecord] = []
    run_streams = np.random.SeedSequence(cfg.seed).spawn(cfg.runs)
    for r, stream in enumerate(run_streams):
        data_ss, noise_ss, *method_ss = stream.spawn(2 + len(BENCH_METHODS))
        truth = _gen_truth(cfg, data_ss)
        Y_true = reconstruct(truth)
        Y_obs = add_noise(Y_true, cfg.snr_db, noise_ss)
        for method, mss in zip(BENCH_METHODS, method_ss):
            eps_k = bound_slack = None
            if method == "als":
                sopts = SolverOptions(max_iters=BENCH_ALS_MAX_ITERS,
                                      tol=BENCH_TOL, seed=mss)
                est, rep = cp_als(Y_obs, cfg.rank, sopts)
            else:
                # The 3-way solves are cheap after compression, so buy
                # local-minimum insurance with a handful of restarts.
                sopts = SolverOptions(max_iters=INNER_MAX_ITERS,
                                      tol=BENCH_TOL, seed=mss)
                mopts = MrcpdOptions(solver_opts=sopts,
                                     restarts=MRCPD_BENCH_RESTARTS)
                est, rep, breport = mrcpd_decompose(Y_obs, cfg.rank, mopts)
                eps_k = breport.eps_k
                bound_slack = breport.bound - breport.final_err
            # One dense model per estimate, freed before the next solve.
            Y_est = reconstruct(est)
            fits = fit(Y_true, Y_est), fit(Y_obs, Y_est)
            del Y_est
            records.append(RunRecord(
                method=method, run=r,
                fit_noiseless=fits[0], fit_observed=fits[1],
                msir_mean=_mean_msir(truth, est),
                runtime_s=rep.runtime_s, converged=rep.converged,
                eps_k=eps_k, bound_slack=bound_slack))
    if out_csv is not None:
        write_csv(records, out_csv)
    return records


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(records, path) -> None:
    if not all(isinstance(rec, RunRecord) for rec in records):
        raise ValueError("records must all be RunRecords")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for rec in records:
            w.writerow([_cell(getattr(rec, col)) for col in CSV_COLUMNS])


def gcr(records, threshold: float, method: str) -> float:
    """Global convergence rate: percent of runs whose noiseless-reference fit
    clears the threshold."""
    threshold = _as_real(threshold, "threshold")
    rows = [rec for rec in records if rec.method == method]
    if not rows:
        raise ValueError(f"no records for method {method!r}")
    hits = sum(rec.fit_noiseless >= threshold for rec in rows)
    return 100.0 * hits / len(rows)


def summarize(records, threshold: float = GCR_THRESHOLD) -> dict:
    """Per-method GCR, median runtime, and mean mSIR."""
    out = {}
    for method in dict.fromkeys(rec.method for rec in records):
        rows = [rec for rec in records if rec.method == method]
        out[method] = {
            "gcr_pct": gcr(records, threshold, method),
            "median_runtime_s": float(np.median([r.runtime_s for r in rows])),
            "mean_msir_db": float(np.mean([r.msir_mean for r in rows])),
            "mean_fit_noiseless": float(np.mean([r.fit_noiseless for r in rows])),
        }
    return out
