"""CP decomposition of high-order tensors through a third-order detour.

The pipeline is one path: pick (or accept) a three-group mode split, merge
the grouped modes, shrink the largest merged mode to at most J whitened
SVD directions, run the solver registered as ``"als"`` on the third-order
tensor (keeping the best of several restarts, and stopping once two of
them agree), re-estimate the compressed mode's factor against the
uncompressed merged tensor with one ALS mode update (the least-squares
rule of every sweep), and split every merged factor back into per-mode
factors by columnwise rank-1 projection.
The final factors come with a certified error bound: writing ``e3`` for the
third-order residual and ``eps_K`` for the (weighted) projection residual,

    ||Y - [[est]]||_F  <=  e3 + sqrt(J) * eps_K,

which the pipeline checks on every run.  A violation is raised, because it
can only come from a bug, never from bad data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod
from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment

from .als import (SolverOptions, _checked_problem, _Route, _route,
                  _solve_gram, get_solver)
from .krproj import kr_project
from .ktensor import KTensor, normalize, reconstruct
from .linalg import (_as_array, _as_arrays, _as_count, _as_counts, _as_real,
                     _column_signs, _congruence, _spawn_rngs,
                     hadamard, khatri_rao, left_singular_pairs, pinv_cutoff)
from .tensor import ModeSplit, matricize, reduce_modes, tensorize
from .uniqueness import _group_bound, mode_rank

BOUND_SLACK_REL = 1e-9
# Inner sweep cap for library, CLI and bench: the compressed core is cheap.
INNER_MAX_ITERS = 2500
# Two restarts agree when their core fits are this close and every matched
# component is this congruent; fit alone is not enough, because restarts
# that end in one bad basin also agree on fit.
AGREE_FIT_TOL = 1e-6
AGREE_CONGRUENCE = 0.99


@dataclass(frozen=True)
class Compression:
    """Compression of the merged tensor before the third-order solve: one
    kind, ``"svd"`` (:func:`compress_mode`), always on.  The type exists
    only because the harness in ``perfbench/`` builds ``Compression("svd")``.
    """

    kind: str

    def __post_init__(self):
        if self.kind != "svd":
            raise ValueError(f"unknown compression kind {self.kind!r}; the "
                             "one kind is 'svd'")


@dataclass
class MrcpdOptions:
    """Knobs for :func:`mrcpd_decompose`.

    ``split=None`` plans the unfolding automatically from J-capped mode
    ranks (:func:`mode_rank`).  ``solver_opts`` (default: ``INNER_MAX_ITERS``
    sweeps) drives every inner solve; its ``init`` must be ``None``, because
    the inner solver sees the merged third-order tensor, which an order-N
    starting point does not fit.  ``nonneg`` is passed to :func:`kr_project`,
    where it refines the SVD fit by nonnegative power updates.
    ``compression`` is always ``Compression("svd")`` (kept for
    ``perfbench/``).  ``restarts`` is the most times the inner solver runs,
    keeping the best fit until two restarts agree
    (:func:`_solve_with_restarts`).  With ``restarts=1`` the one solve runs
    from ``solver_opts.seed`` itself; with more, each restart runs from a
    child of it (an int, ``None``, a ``SeedSequence``, left unchanged, or a
    ``Generator``).
    """

    split: ModeSplit | None = None
    solver_opts: SolverOptions = field(
        default_factory=lambda: SolverOptions(max_iters=INNER_MAX_ITERS))
    nonneg: bool = False
    compression: Compression = Compression("svd")
    restarts: int = 1

    def _check(self):
        """Check every field; :func:`mrcpd_decompose` checks again."""
        if not isinstance(self.split, (ModeSplit, type(None))):
            raise ValueError(f"split must be a ModeSplit, got {self.split!r}")
        if not isinstance(self.solver_opts, SolverOptions):
            raise ValueError(f"solver_opts must be a SolverOptions, got "
                             f"{self.solver_opts!r}")
        self.solver_opts._check()
        if not isinstance(self.compression, Compression):
            raise ValueError(f"compression is always on, got {self.compression!r}")
        self.restarts = _as_count(self.restarts, "restarts", 1)

    __post_init__ = _check


@dataclass(frozen=True)
class BoundReport:
    """Certified error bound of one pipeline run.

    ``fit3`` is the Frobenius residual of the third-order model on the
    uncompressed merged tensor, ``eps_k`` the weighted rank-1 projection
    residual, ``bound = fit3 + sqrt(J) * eps_k``, and ``final_err`` the
    actual residual of the returned factors on the input tensor.  ``holds``
    allows a relative slack of 1e-9 for round-off.
    """

    eps_k: float
    fit3: float
    final_err: float
    bound: float
    holds: bool


def plan_unfolding(kranks, J: int) -> ModeSplit:
    """Choose a three-group mode split balancing the group krank bounds.

    Modes are sorted by descending krank estimate (ties by index), and every
    partition of the modes into three groups, S(N, 3) of them, is scored by
    its group bounds (:func:`krank_product_bound`).  The plan whose sorted
    bound tuple is largest wins (so the smallest bound is maximized first,
    then the next one, and so on); remaining ties prefer a smaller maximum
    group size, then contiguous blocks of the sorted order, then earlier
    boundaries (which merges the smallest kranks), then the first found.
    Groups are returned in descending bound order, members in sorted order.

    The cost grows as S(N, 3), about 3^N / 6 partitions, scored in Python:
    4-9 ms at N = 8 and 0.4-0.7 s at N = 12 on a 2-core x86-64 box, each
    further mode about three times more.  At high N, pass a split
    (``MrcpdOptions(split=...)``) instead of planning one.
    """
    kranks = _as_counts(kranks, "kranks", 1, min_len=4)
    J = _as_count(J, "rank", 1)
    N = len(kranks)
    order = sorted(range(N), key=lambda n: (-kranks[n], n))
    best_key, best = None, None
    # Restricted-growth label strings over ``order``, one per partition in
    # lexicographic order; a prefix grows while all three labels can appear.
    stack = [(0,)]
    while stack:
        labels = stack.pop()
        top, left = max(labels), N - len(labels)
        if left:
            stack += [labels + (g,) for g in range(min(top + 1, 2), -1, -1)
                      if left > 2 - max(top, g)]
            continue
        sums, sizes = [0, 0, 0], [0, 0, 0]
        for m, g in zip(order, labels):
            sums[g] += kranks[m]
            sizes[g] += 1
        bounds = [_group_bound(k, p, J) for k, p in zip(sums, sizes)]
        key = (sorted(bounds), -max(sizes), labels == tuple(sorted(labels)),
               [-p for p in sizes])
        if best_key is None or key > best_key:
            best_key, best = key, (labels, bounds)
    labels, bounds = best
    groups = [[m for m, h in zip(order, labels) if h == g]
              for g in sorted(range(3), key=lambda g: (-bounds[g], g))]
    cuts = (0, len(groups[0]), len(groups[0]) + len(groups[1]), N)
    return ModeSplit(tuple(m for group in groups for m in group), cuts)


def compress_mode(T3, mode: int, width: int):
    """Shrink one mode of a tensor to at most ``width`` whitened directions.

    Projects the mode-``mode`` matricization onto its leading ``width``
    left singular vectors, or its numerical rank r of them (counted with
    :func:`pinv_cutoff`, so they keep the data) if r is smaller, and whitens
    (new matricization ``inv(D) U^T M``).  A ``width`` at or above the mode
    size is a no-op.  Each factored singular vector is signed so that its
    first entry above ``1e-12`` of its peak is nonnegative, which makes the
    result independent of the signs the factorization picks.  Only the
    compressed tensor is returned: the pipeline re-estimates the compressed
    mode's factor from the uncompressed data (:func:`recover_merged_factor`).
    """
    T3 = _as_array(T3, "T3")
    mode = _as_count(mode, "mode", 0, T3.ndim - 1)
    width = _as_count(width, "width", 1)
    if width >= T3.shape[mode]:
        return T3
    M = matricize(T3, mode)
    cutoff = pinv_cutoff(M)
    wide = M.shape[0] <= M.shape[1]
    # Factor the short side; for a tall M that gives its right pairs.
    W, s = left_singular_pairs(M if wide else M.T, cutoff,
                               min(width, *M.shape), "T3")
    r = int(np.sum(s > cutoff * s[0]))
    if r == 0:
        raise ValueError("cannot compress an all-zero tensor")
    W = W[:, :r] * _column_signs(W[:, :r])
    # A tall M is U diag(s) W^T, so its whitened rows are W^T exactly;
    # forming U first would lose them when a kept s is tiny.
    rows = (W / s[:r]).T @ M if wide else W.T
    shape = list(T3.shape)
    shape[mode] = r
    return tensorize(rows, tuple(shape), mode)


def recover_merged_factor(Y3, k: int, known_factors):
    """Least-squares estimate of merged factor ``k`` given the others.

    Fits ``matricize(Y3, k) ~ G_k @ khatri_rao(known).T`` on the merged
    tensor ``Y3`` (see :func:`reduce_modes`) by one ALS mode update: the
    MTTKRP times the inverse of the Hadamard product of the known factors'
    Grams.  The result absorbs the component weights.  When the known
    factors' Khatri-Rao product is numerically rank deficient, the Gram's
    pseudo-inverse gives the minimum-norm solution.
    """
    Y3 = _as_array(Y3, "Y3")
    k = _as_count(k, "group", 0, Y3.ndim - 1)
    known = _as_arrays(known_factors, "known factor")
    if len(known) != Y3.ndim - 1:
        raise ValueError(f"expected {Y3.ndim - 1} known factors, got {len(known)}")
    modes = [p for p in range(Y3.ndim) if p != k]
    for i, (p, A) in enumerate(zip(modes, known)):
        if A.ndim != 2 or A.shape[0] != Y3.shape[p]:
            raise ValueError(f"known factor {i} has shape {A.shape}, but "
                             f"merged mode {p} has {Y3.shape[p]} rows")
        if A.shape[1] != known[0].shape[1]:
            raise ValueError(f"known factor {i} has {A.shape[1]} columns, "
                             f"known factor 0 has {known[0].shape[1]}")
        if not np.isfinite(A).all():
            raise ValueError(f"known factor {i} has NaN or Inf entries")
    factors = known[:k] + [None] + known[k:]
    W = _Route(Y3).mttkrp(factors, k)
    return _solve_gram(W, hadamard([A.T @ A for A in known]))


def _residual_norm(T, kt: KTensor) -> float:
    """``||T - [[kt]]||_F`` with one tensor-sized temporary.

    The model from :func:`reconstruct` is C-contiguous and ``T`` is
    subtracted from it in place.  A tensor that is not C-contiguous is read
    as ``T.T`` against the factors in reverse order, because an F-ordered
    tensor is the C-ordered tensor of its reversed modes; that keeps the
    subtraction in memory order for both layouts.
    """
    if not T.flags.c_contiguous:
        T, kt = T.T, KTensor(kt.factors[::-1], kt.weights)
    R = reconstruct(kt)
    R -= T
    return float(np.linalg.norm(R))


def verify_error_bound(T, est: KTensor, fit3: float, eps_k: float) -> BoundReport:
    """Check the pipeline's error bound on a finished estimate.

    ``est`` must be normalized (unit columns outside the last mode) so the
    sqrt(J) step of the bound applies.  ``final_err`` comes from
    :func:`_residual_norm`, which allocates one tensor-sized array.
    """
    T = _as_array(T, "T")
    if not isinstance(est, KTensor):
        raise ValueError(f"est must be a KTensor, got {est!r}")
    fit3, eps_k = _as_real(fit3, "fit3", 0), _as_real(eps_k, "eps_k", 0)
    if T.shape != est.shape:
        raise ValueError(f"tensor shape {T.shape} does not match estimate "
                         f"shape {est.shape}")
    for n in range(est.order - 1):
        norms = np.linalg.norm(est.factors[n], axis=0)
        if np.any(np.abs(norms[norms > 0] - 1.0) > 1e-6):
            raise ValueError(f"estimate factor {n} is not column-normalized")
    norm_t = _as_real(np.linalg.norm(T), "the norm of T")
    final_err = _as_real(_residual_norm(T, est), "the residual of est")
    bound = float(fit3 + np.sqrt(est.rank) * eps_k)
    holds = bool(final_err <= bound + BOUND_SLACK_REL * norm_t)
    return BoundReport(eps_k=eps_k, fit3=fit3,
                       final_err=final_err, bound=bound, holds=holds)


def _orient_for_nonneg(merged, group_modes):
    """Flip merged columns toward a positive sum before a nonneg projection.

    The inner solve is unconstrained, so a merged column can come out
    mostly negative, and no nonnegative rank-1 fit is then better than
    zero.  Each projected (multi-mode) group's column takes the sign of its
    sum, and the same sign goes onto one absorbing column: a singleton
    group's if the split has one, else the last projected group's.  Each
    flip is paired, so the model is unchanged.
    """
    merged = [G.copy() for G in merged]
    projected = [g for g, modes in enumerate(group_modes) if len(modes) > 1]
    singles = [g for g, modes in enumerate(group_modes) if len(modes) == 1]
    absorb = singles[0] if singles else projected[-1]
    for g in projected:
        signs = np.where(merged[g].sum(axis=0) < 0, -1.0, 1.0)
        merged[g] *= signs
        merged[absorb] *= signs
    return merged


def _min_congruence(a: KTensor, b: KTensor) -> float:
    """Smallest per-component congruence of two KTensors after optimal
    column matching: the congruence of columns i and j is the product over
    modes of the |cosines| of their factor columns."""
    C = np.prod([_congruence(A, B) for A, B in zip(a.factors, b.factors)],
                axis=0)
    rows, cols = linear_sum_assignment(-C)
    return float(C[rows, cols].min())


def _solve_with_restarts(solver, Y3, J, opts: MrcpdOptions):
    """Run the registered solver up to ``restarts`` times, keep the best fit.

    Restarting stops as soon as the best restart so far and another one
    agree: fits within ``AGREE_FIT_TOL`` and a :func:`_min_congruence` of
    at least ``AGREE_CONGRUENCE``.  Repeated fits from different starts
    that reach the same loadings mark the minimum (Bro, Chemometr. Intell.
    Lab. Syst. 38, 1997).  Seeds come from :func:`_spawn_rngs`, so a
    repeated call with one ``SeedSequence`` repeats.
    """
    base = opts.solver_opts
    if opts.restarts == 1:
        return solver(Y3, J, base)
    runs = []
    for s in _spawn_rngs(base.seed, opts.restarts):
        runs.append(solver(Y3, J, replace(base, seed=s)))
        best = max(runs, key=lambda run: run[1].final_fit)
        if any(abs(best[1].final_fit - run[1].final_fit) <= AGREE_FIT_TOL
               and _min_congruence(best[0], run[0]) >= AGREE_CONGRUENCE
               for run in runs if run is not best):
            break
    return best


def mrcpd_decompose(T, J: int, opts: MrcpdOptions | None = None):
    """Decompose an order >= 4 tensor via merge, solve, project.

    Returns ``(KTensor, SolveReport, BoundReport)``: the order-N estimate in
    original mode order (normalized), the inner solve's report with
    ``runtime_s`` replaced by the total pipeline wall-clock, and the bound
    check.  A J above the feasible rank of the merged tensor (the product
    of the two smaller merged sizes, when the largest is above J) raises
    ``ValueError`` before the merge.  Raises if the certified bound fails,
    which indicates a bug.
    """
    T, J, opts = _checked_problem(T, J, opts, MrcpdOptions, 4)
    if opts.solver_opts.init is not None:
        raise ValueError("mrcpd_decompose does not take solver_opts.init: the "
                         "inner solver runs on the merged third-order tensor")
    solver = get_solver("als")

    start = perf_counter()
    split = opts.split
    if split is None:
        estimates = [max(1, mode_rank(T, n, cap=J)) for n in range(T.ndim)]
        split = plan_unfolding(estimates, J)
    if len(split.perm) != T.ndim:
        raise ValueError(f"split covers {len(split.perm)} modes, tensor has "
                         f"{T.ndim}")
    if split.num_groups != 3:
        raise ValueError(f"the pipeline solves a third-order core; the split "
                         f"has {split.num_groups} groups")
    sizes = split.group_sizes(T.shape)
    m = _route(sizes)
    # Compression and recovery take the merged tensor's route mode
    # (als._route), so recovery's MTTKRP reads that mode's own unfolding.
    # Compressed, it keeps at most the product of the other two sizes, and
    # recovering its factor needs J of them.
    feasible = prod(sizes) // sizes[m]
    if sizes[m] > J > feasible:
        raise ValueError(
            f"rank {J} exceeds the feasible rank {feasible} of the merged "
            f"{'x'.join(map(str, sizes))} tensor; use a rank of at most "
            f"{feasible} or another split")
    Y3 = reduce_modes(T, split)

    Y3s = compress_mode(Y3, m, J)
    kt3, rep = _solve_with_restarts(solver, Y3s, J, opts)
    kt3 = normalize(kt3, all_modes=True)
    if Y3s.shape != Y3.shape:
        factors3 = list(kt3.factors)
        others = [factors3[p] for p in range(3) if p != m]
        factors3[m] = recover_merged_factor(Y3, m, others)
        kt3 = normalize(KTensor(factors3), all_modes=True)
    fit3 = _residual_norm(Y3, kt3)
    # Y3 is a full copy of T: free it before the bound check allocates its
    # one tensor-sized array.
    del Y3, Y3s

    # Split each merged factor; eps_k sums the weighted projection residuals.
    lam = kt3.weights
    merged = kt3.factors
    if opts.nonneg:
        merged = _orient_for_nonneg(merged, split.group_modes())
    eps_k = 0.0
    factors_by_mode = {}
    for G, modes in zip(merged, split.group_modes()):
        if len(modes) == 1:
            factors_by_mode[modes[0]] = G
            continue
        factors, _ = kr_project(G, [T.shape[n] for n in modes],
                                nonneg=opts.nonneg)
        eps_k += float(np.linalg.norm((G - khatri_rao(factors))
                                      * lam[None, :]))
        factors_by_mode.update(zip(modes, factors))
    est = normalize(KTensor([factors_by_mode[n] for n in range(T.ndim)], lam))

    report = verify_error_bound(T, est, fit3, eps_k)
    if not report.holds:
        raise RuntimeError(
            f"error bound violated: final residual {report.final_err:.6e} > "
            f"{report.bound:.6e} (fit3={fit3:.6e}, eps_k={eps_k:.6e}); this "
            "is a bug in the pipeline, please report it")
    rep = replace(rep, runtime_s=perf_counter() - start)
    return est, rep, report
