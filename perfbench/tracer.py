"""Span tracing of cpdkit's layers from outside the package.

Every public function of a layer module is wrapped at each module attribute
that refers to it, so a call resolves to the wrapper whichever module the
caller looks it up in (``cpdkit.mrcpd.mode_rank``, ``cpdkit.als.khatri_rao``,
``cpdkit.cli.read_tnsr``, ...).  The solver registered under ``"als"`` is
replaced by a timing wrapper so each inner restart gets its own span and its
``SolveReport`` is kept.  Nothing under ``src/`` is modified; the wrappers are
installed only around a decomposition and removed afterwards.

Spans stay in memory as ``[name, start, end, parent, problem]`` rows and are
written out once, at the end of the run.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# The package's modules, which are the benchmark's layers.  ``synth`` only
# runs during set-up and ``bench`` (the old harness) is not measured.
LAYERS = ("tensor", "linalg", "ktensor", "als", "krproj", "uniqueness",
          "mrcpd", "cli")
ROOT_SPAN = "bench.decompose"


@dataclass
class Restart:
    """One ALS solve: the inner restart of the pipeline, or a direct call."""

    problem: int
    report: object
    seconds: float
    shape: tuple
    rank: int


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.restarts: list[Restart] = []
        self.work: dict[str, float] = defaultdict(float)  # computed work
        self._stack: list[int] = []
        self._problem = -1

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._problem])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def add_restart(self, problem, report, seconds, shape, rank) -> None:
        self.restarts.append(Restart(problem, report, seconds, tuple(shape),
                                     int(rank)))

    # -- installation ------------------------------------------------------
    def _count(self, key, amount) -> None:
        self.work[key] += amount

    def _hooks(self):
        """Work counters computed from arguments and results (not timed)."""
        return {
            "linalg.khatri_rao": lambda args, out: self._count(
                "linalg.khatri_rao_bytes", out.nbytes),
            "krproj.kr_project": lambda args, out: self._count(
                "krproj.columns", args[0].shape[1]),
        }

    @contextmanager
    def installed(self, cpdkit, problem: int):
        """Wrap every layer function and the ``als`` solver for one
        decomposition; the root span covers the whole call."""
        als = cpdkit.als
        register, solver = als.register_solver, als.get_solver("als")
        modules = [getattr(cpdkit, name) for name in LAYERS]
        targets = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = f"{layer}.{attr}"
        hooks = self._hooks()
        wrappers = {}
        patched = []
        for mod in [cpdkit] + modules:
            for attr, obj in list(vars(mod).items()):
                name = targets.get(id(obj))
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

        def timed_restart(T, J, opts):
            idx = self._open("als.restart")
            try:
                kt, rep = solver(T, J, opts)
            finally:
                self._close(idx)
            span = self.spans[idx]
            self.add_restart(self._problem, rep, span[2] - span[1], T.shape,
                             J)
            return kt, rep

        register("als", timed_restart)
        self._problem = problem
        root = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(root)
            self._problem = -1
            register("als", solver)
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent, or whose
        children together outlast them."""
        bad = 0
        for name, start, end, parent, _ in self.spans:
            if end is None or end < start:
                bad += 1
            elif parent >= 0:
                p = self.spans[parent]
                bad += start < p[1] or end > p[2]
        bad += sum(st < 0 for st in self.self_times())
        return bad

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start", "end", "parent",
                                   "problem"],
                       "spans": self.spans}, f)


def _kept_restart(restarts, returned):
    """The restart whose result the decomposition returned: the pipeline's
    report shares its ``fit_trace`` list with the kept restart's report;
    without a returned report the problem must have had a single solve."""
    if returned is not None:
        for r in restarts:
            if r.report.fit_trace is returned.fit_trace:
                return r
    if len(restarts) == 1:
        return restarts[0]
    raise ValueError(f"cannot tell which of {len(restarts)} restarts was kept")


def layer_metrics(tracer: Tracer, returned: dict) -> dict:
    """Per-layer metrics, per decomposition, from one traced pass.

    ``returned`` maps each traced problem to the SolveReport the
    decomposition returned (None where the caller never sees it).  Function
    metrics (``<layer>.<function>_s``) are inclusive call time; ``<layer>.
    self_s`` is the summed self time of every span of that layer.
    """
    selfs = tracer.self_times()
    incl = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    roots = []
    for (name, start, end, _, _), st in zip(tracer.spans, selfs):
        incl[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += st
        if name == ROOT_SPAN:
            roots.append(end - start)
    n = len(roots)
    restarts = tracer.restarts
    sweeps = sum(r.report.iterations for r in restarts)
    kept = [_kept_restart([r for r in restarts if r.problem == p], rep)
            for p, rep in returned.items()]
    flop = sum(r.report.iterations * len(r.shape) * 2 * r.rank
               * math.prod(r.shape) for r in restarts)
    work = tracer.work
    m = {
        "uniqueness.mode_rank_s": incl["uniqueness.mode_rank"],
        "uniqueness.mode_rank_calls": calls["uniqueness.mode_rank"],
        "mrcpd.plan_unfolding_s": incl["mrcpd.plan_unfolding"],
        "mrcpd.compress_mode_s": incl["mrcpd.compress_mode"],
        "mrcpd.recover_merged_factor_s": incl["mrcpd.recover_merged_factor"],
        "mrcpd.verify_error_bound_s": incl["mrcpd.verify_error_bound"],
        "tensor.reduce_modes_s": incl["tensor.reduce_modes"],
        "tensor.matricize_s": incl["tensor.matricize"],
        "tensor.matricize_calls": calls["tensor.matricize"],
        "tensor.io_s": incl["tensor.read_tnsr"] + incl["tensor.write_tnsr"],
        "ktensor.io_s": incl["ktensor.read_ktns"] + incl["ktensor.write_ktns"],
        "ktensor.reconstruct_s": incl["ktensor.reconstruct"],
        "ktensor.normalize_s": incl["ktensor.normalize"],
        "als.cp_als_s": incl["als.cp_als"],
        "als.restarts": len(restarts),
        "als.sweeps": sweeps,
        "als.converged_restarts": sum(r.report.converged for r in restarts),
        "als.mttkrp_gflop": flop / 1e9,
        "linalg.khatri_rao_s": incl["linalg.khatri_rao"],
        "linalg.khatri_rao_calls": calls["linalg.khatri_rao"],
        "linalg.khatri_rao_gb": work["linalg.khatri_rao_bytes"] / 1e9,
        "linalg.hadamard_s": incl["linalg.hadamard"],
        "krproj.kr_project_s": incl["krproj.kr_project"],
        "krproj.columns": work["krproj.columns"],
    }
    m.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    m = {key: value / n for key, value in m.items()}
    m["als.restart_s_max"] = max((r.seconds for r in restarts), default=0.0)
    m["als.sweep_ms"] = 1e3 * incl["als.cp_als"] / sweeps if sweeps else 0.0
    m["als.useful_sweep_ratio"] = (
        sum(r.report.iterations for r in kept) / sweeps if sweeps else 0.0)
    m["trace.decompose_s"] = sum(roots) / n
    m["trace.accounted_pct"] = 100.0 * sum(
        layer_self[layer] for layer in LAYERS) / sum(roots)
    return m

