"""The benchmark's workloads: problem generation, one decomposition, and the
checks every output must pass.

Each workload is a closed loop: one process runs one decomposition at a
time, in problem order.  Problems come from the ``--seed`` argument, split
per problem the way ``cpdkit.bench.run_benchmark`` splits it: problem ``i``
is child ``i`` of ``SeedSequence(seed)``, which spawns the data, noise,
direct-ALS and mode-reduction streams in that order.  The reasons for each
workload and for its settings are in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cpdkit

GCR_THRESHOLD = 0.99
# cpdkit.bench's restart count for the mode-reduction pipeline.
MRCPD_RESTARTS = 6


class CheckFailed(ValueError):
    """An output of the program failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple
    rank: int
    snr_db: float | None
    problems: int          # problems in one timed run, in order
    max_iters: int         # sweep cap of every ALS solve
    tol: float
    generator: str         # "random" or "bottleneck"
    settings: dict = field(default_factory=dict)

    @property
    def direct(self) -> bool:
        return self.name == "sim1_direct"

    @property
    def trace_problems(self) -> int:
        """The traced run decomposes the first half of the problems twice
        (untraced, then traced), so it fits the same time as a timed run."""
        return (self.problems + 1) // 2

    def manifest(self) -> dict:
        return {"shape": list(self.shape), "rank": self.rank,
                "snr_db": self.snr_db, "problems": self.problems,
                "trace_problems": self.trace_problems,
                "max_iters": self.max_iters, "tol": self.tol,
                "generator": self.generator, **self.settings}


SIM1 = dict(shape=(20,) * 5, rank=48, snr_db=20.0, generator="random")
WORKLOADS = {
    w.name: w for w in (
        Workload("sim1_direct", problems=4, max_iters=30, tol=1e-8,
                 settings={"call": "cpdkit.als.cp_als"}, **SIM1),
        Workload("sim1_mrcpd", problems=10, max_iters=50, tol=1e-8,
                 settings={"call": "cpdkit.mrcpd.mrcpd_decompose",
                           "compression": "svd",
                           "restarts": MRCPD_RESTARTS}, **SIM1),
        Workload("sim2_cli", shape=(20,) * 5, rank=5, snr_db=None,
                 problems=8, max_iters=100, tol=1e-8, generator="bottleneck",
                 settings={"call": "cpdkit.cli.main decompose --method "
                                   "mrcpd (CLI defaults)"}),
    )
}


@dataclass
class Problem:
    index: int
    data: np.random.SeedSequence
    noise: np.random.SeedSequence
    als: np.random.SeedSequence
    mrcpd: np.random.SeedSequence
    truth: cpdkit.KTensor
    path: Path


def problem(w: Workload, seed: int, index: int, workdir: Path) -> Problem:
    """Problem ``index`` of a run.  Built fresh on every call, because the
    pipeline spawns its restart seeds from the SeedSequence it is given."""
    streams = np.random.SeedSequence(seed, spawn_key=(index,)).spawn(4)
    if w.generator == "bottleneck":
        truth = cpdkit.gen_bottleneck_ktensor(w.shape[0], w.rank, streams[0])
    else:
        truth = cpdkit.gen_random_ktensor(w.shape, w.rank, streams[0])
    ext = ".tnsr" if w.name == "sim2_cli" else ".npy"
    return Problem(index, *streams, truth, workdir / f"problem{index}{ext}")


def write_problems(w: Workload, seed: int, workdir: Path) -> None:
    """Set-up: generate every problem's observed tensor and write it."""
    for i in range(w.problems):
        p = problem(w, seed, i, workdir)
        Y = cpdkit.add_noise(cpdkit.reconstruct(p.truth), w.snr_db, p.noise)
        if p.path.suffix == ".tnsr":
            cpdkit.write_tnsr(p.path, Y)
        else:
            np.save(p.path, Y)


def warm_up() -> None:
    """Touch every code path once on a small problem, so BLAS, LAPACK and
    SciPy are loaded before anything is timed."""
    truth = cpdkit.gen_random_ktensor((6,) * 5, 3, seed=0)
    T = cpdkit.reconstruct(truth)
    est, _, _ = cpdkit.mrcpd_decompose(T, 3, cpdkit.MrcpdOptions(
        compression=cpdkit.Compression("svd"),
        solver_opts=cpdkit.SolverOptions(max_iters=20, seed=0)))
    cpdkit.cp_als(T, 3, cpdkit.SolverOptions(max_iters=5, seed=0))
    cpdkit.msir(truth.factors[0], est.factors[0])


def observed(w: Workload, p: Problem) -> np.ndarray:
    """The tensor the decomposition sees (sim2_cli reads its own file)."""
    if w.name == "sim2_cli":
        return cpdkit.reconstruct(p.truth)
    return np.load(p.path)


@dataclass
class Raw:
    """What one call into the program returned."""

    est: object = None
    report: object = None
    bound: object = None
    code: int | None = None
    stdout: str = ""


def call(w: Workload, p: Problem, Y) -> Raw:
    """One decomposition, through the entry point the workload measures.
    Functions are looked up on their modules at call time, so a traced run
    reaches the wrappers."""
    if w.name == "sim1_direct":
        est, rep = cpdkit.als.cp_als(Y, w.rank, cpdkit.SolverOptions(
            max_iters=w.max_iters, tol=w.tol, seed=p.als))
        return Raw(est=est, report=rep)
    if w.name == "sim1_mrcpd":
        opts = cpdkit.MrcpdOptions(
            solver_opts=cpdkit.SolverOptions(max_iters=w.max_iters, tol=w.tol,
                                             seed=p.mrcpd),
            compression=cpdkit.Compression("svd"), restarts=MRCPD_RESTARTS)
        est, rep, bound = cpdkit.mrcpd.mrcpd_decompose(Y, w.rank, opts)
        return Raw(est=est, report=rep, bound=bound)
    out = io.StringIO()
    argv = ["decompose", "--input", str(p.path), "--rank", str(w.rank),
            "--method", "mrcpd", "--seed", str(cli_seed(p)),
            "--output", str(p.path.with_suffix(".ktns"))]
    with contextlib.redirect_stdout(out):
        code = cpdkit.cli.main(argv)
    return Raw(code=code, stdout=out.getvalue())


def cli_seed(p: Problem) -> int:
    """The CLI takes an integer seed; derive it from the problem's stream."""
    return int(p.mrcpd.generate_state(1)[0])


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check(w: Workload, p: Problem, Y, raw: Raw):
    """Validate one output; returns ``(estimate, returned SolveReport)``."""
    if w.name == "sim2_cli":
        _require(raw.code == 0, f"cpd decompose exited with {raw.code}")
        est = cpdkit.read_ktns(p.path.with_suffix(".ktns"))
    else:
        est = raw.est
    _require(est.shape == tuple(w.shape) and est.rank == w.rank,
             f"estimate has shape {est.shape} rank {est.rank}")
    _require(all(np.isfinite(A).all() for A in est.factors)
             and np.isfinite(est.weights).all(), "non-finite factor entries")
    norm = float(np.linalg.norm(Y.ravel()))
    err = float(np.linalg.norm((Y - cpdkit.reconstruct(est)).ravel()))
    slack = 1e-9 * norm
    if w.name == "sim1_direct":
        _require(abs((1.0 - err / norm) - raw.report.final_fit) <= 1e-6,
                 f"reported fit {raw.report.final_fit!r} but the factors fit "
                 f"{1.0 - err / norm!r}")
        return est, raw.report
    if w.name == "sim1_mrcpd":
        b = raw.bound
        bound = b.fit3 + math.sqrt(w.rank) * b.eps_k
        _require(b.holds and err <= bound + slack,
                 f"residual {err!r} exceeds the certified bound {bound!r}")
        return est, raw.report
    fields = dict(re.findall(r"(\w+)=(\S+)", raw.stdout))
    _require({"fit", "eps_k", "bound_slack"} <= fields.keys(),
             f"unexpected CLI output {raw.stdout!r}")
    reported_err = (1.0 - float(fields["fit"])) * norm
    bound = reported_err + float(fields["bound_slack"])
    _require(abs(err - reported_err) <= slack,
             f"written factors have residual {err!r}, the CLI reported "
             f"{reported_err!r}")
    _require(err <= bound + slack,
             f"residual {err!r} exceeds the certified bound {bound!r}")
    return est, None


def score(w: Workload, p: Problem, Y, est) -> dict:
    """Quality of one estimate against the ground truth."""
    Y_true = Y if w.snr_db is None else cpdkit.reconstruct(p.truth)
    return {
        "fit_noiseless": cpdkit.fit(Y_true, cpdkit.reconstruct(est)),
        "msir_db": float(np.mean([cpdkit.msir(p.truth.factors[n],
                                              est.factors[n])
                                  for n in range(p.truth.order)])),
    }
