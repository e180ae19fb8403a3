"""CP decomposition of high-order tensors through a third-order detour.

The pipeline is one path:

1. One sequential pass over the original modes in index order
   (:func:`_truncate_modes`) takes each mode's leading singular pairs on
   the tensor already shrunk along the modes before it, and projects every
   mode above J onto at most J of them, an orthonormal basis.  The pass's
   J-capped mode ranks are the planning estimates.
2. Pick (from those estimates) or accept a three-group mode split, its
   route group (the largest, :func:`als._route`) first, and merge both the
   tensor and the pass's small core by it.
3. Whiten the merged core's route mode at its numerical rank (at most J)
   and project every other merged mode still above J onto at most J
   orthonormal directions.
4. Run the solver registered as ``"als"`` on that core of at most J per
   mode.  When two core modes equal J and the third has at least 2
   entries, the one solve starts from a generalized eigenvalue
   decomposition of the core (:func:`_gevd_start`); random restarts, which
   keep the best fit and stop once two of them agree, run only if that
   solve did not converge or the tail below shows a missed basin, and the
   estimate with the lower final residual is kept.  Any other core takes
   the random restarts alone.
5. Expand the two other merged factors by their bases (the Kronecker
   product of their members' pass bases), re-estimate the route factor
   against the uncompressed merged tensor with one ALS mode update (the
   least-squares rule of every sweep), and split every merged factor back
   into per-mode factors by columnwise rank-1 projection.

Steps 3 and 5 run when some mode, original or merged, is above J;
otherwise the solve runs on the merged tensor itself.

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
from .uniqueness import _group_bound, _mode_pairs, _rank

BOUND_SLACK_REL = 1e-9
# Inner sweep cap for library, CLI and bench: the compressed core is cheap.
INNER_MAX_ITERS = 2500
# Two restarts agree when their core fits are this close and every matched
# component is this congruent; fit alone is not enough, because restarts
# that end in one bad basin also agree on fit.
AGREE_FIT_TOL = 1e-6
AGREE_CONGRUENCE = 0.99
# The random restarts run after the algebraic start when final_err exceeds
# fit3 by more than this share of it: the projection shows a missed basin.
MISS_REL = 0.01


@dataclass(frozen=True)
class Compression:
    """Compression before the third-order solve: one kind, ``"svd"`` (the
    pass :func:`_truncate_modes`, then :func:`_whiten_mode` and
    :func:`_project_mode` on the merged core), always on.  The type exists
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

    ``split=None`` plans the unfolding (:func:`plan_unfolding`) from the
    J-capped mode ranks that the pass over the original modes finds
    (:func:`_truncate_modes`); a given split skips the estimates, and the
    pass then visits only the modes above J.  Either way the route group
    is merged first.  ``solver_opts`` (default: ``INNER_MAX_ITERS``
    sweeps) drives every inner solve; its ``init`` must be ``None``, because
    the inner solver sees the merged third-order tensor, which an order-N
    starting point does not fit.  ``nonneg`` is passed to :func:`kr_project`,
    where it refines the SVD fit by nonnegative power updates.
    ``compression`` is always ``Compression("svd")`` (kept for
    ``perfbench/``): every original mode above J is projected by the pass,
    the merged core's route mode is whitened and every other merged mode
    above J is projected, so the inner solves see at most J per mode.

    ``restarts`` caps the random restarts, which keep the best fit until
    two of them agree (:func:`_solve_with_restarts`).  A core with two
    modes at J is first solved once from its algebraic start
    (:func:`_gevd_start`, weights drawn from ``solver_opts.seed``), and the
    restarts run after it only on a miss and only if ``restarts > 1``; so
    ``restarts=1`` means that one solve alone.  Any other core takes the
    restarts alone.  With ``restarts=1`` the one random solve runs from
    ``solver_opts.seed`` itself; with more, each restart runs from a child
    of it (an int, ``None``, a ``SeedSequence``, left unchanged, or a
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


def _leading_basis(T3, mode: int, width: int):
    """The basis that :func:`compress_mode` and :func:`_project_mode` keep.

    Returns ``(M, W, s, wide)``: the mode-``mode`` matricization ``M``, the
    short side's leading ``r`` singular vectors ``W`` (left ones of a wide
    ``M``, right ones of a tall ``M``), signed by :func:`_column_signs`, and
    their singular values ``s``.  ``r`` is ``width``, or the numerical rank
    counted with :func:`pinv_cutoff` if that is smaller.
    """
    M = matricize(T3, mode)
    cutoff = pinv_cutoff(M)
    wide = M.shape[0] <= M.shape[1]
    # Factor the short side; for a tall M that gives its right pairs.
    W, s = left_singular_pairs(M if wide else M.T, cutoff,
                               min(width, *M.shape), "T3")
    r = int(np.sum(s > cutoff * s[0]))
    if r == 0:
        raise ValueError("cannot compress an all-zero tensor")
    return M, W[:, :r] * _column_signs(W[:, :r]), s[:r], wide


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
    The pipeline whitens the route mode of its merged core with the same
    rule (:func:`_whiten_mode`), also when that mode has J or fewer rows.
    """
    T3 = _as_array(T3, "T3")
    mode = _as_count(mode, "mode", 0, T3.ndim - 1)
    width = _as_count(width, "width", 1)
    if width >= T3.shape[mode]:
        return T3
    return _whiten_mode(T3, mode, width)


def _whiten_mode(T3, mode: int, width: int):
    """:func:`compress_mode` without its checks and its no-op: whitens at
    the numerical rank even when the mode has ``width`` or fewer rows."""
    M, W, s, wide = _leading_basis(T3, mode, width)
    # A tall M is U diag(s) W^T, so its whitened rows are W^T exactly;
    # forming U first would lose them when a kept s is tiny.
    rows = (W / s).T @ M if wide else W.T
    shape = list(T3.shape)
    shape[mode] = len(s)
    return tensorize(rows, tuple(shape), mode)


def _project_mode(T3, mode: int, width: int):
    """Project one mode onto at most ``width`` orthonormal directions.

    Returns ``(U, core)``: ``U`` holds the leading left singular vectors of
    the mode-``mode`` matricization ``M`` (the basis of
    :func:`_leading_basis`), with orthonormal columns, and ``core`` is the
    tensor whose matricization is ``U^T M``.  A factor ``C`` fitted on the
    core expands to ``U @ C`` with its column norms and congruences kept,
    and when ``M`` has numerical rank at most ``width``,
    ``U @ (U^T M)`` gives ``M`` back.
    """
    M, W, s, wide = _leading_basis(T3, mode, width)
    # A tall M's left vectors are M W / s; QR keeps them orthonormal when a
    # kept s is tiny.
    U = W if wide else np.linalg.qr(M @ W)[0]
    shape = list(T3.shape)
    shape[mode] = U.shape[1]
    return U, tensorize(U.T @ M, tuple(shape), mode)


def _truncate_modes(T, J: int, modes):
    """One sequential pass over ``modes`` in index order (sequentially
    truncated HOSVD: Vannieuwenhoven, Vandebril and Meerbergen, SIAM J.
    Sci. Comput. 34(2), 2012).

    Mode ``n`` takes the leading singular pairs of the running tensor, T
    already projected on the earlier modes, from :func:`_mode_pairs`; its
    rank there, capped at J (at least 1), is the mode's planning estimate.
    A mode larger than J is then projected onto that many leading left
    singular vectors (signed by :func:`_column_signs`), an orthonormal
    basis, so the next mode's Gram reads a smaller tensor.  Returns
    ``(core, bases, estimates)``: the projected tensor, the basis of each
    projected mode (``T`` is the core times each basis along its mode) and
    a dict of estimates (1 for an all-zero mode, as in planning from
    :func:`mode_rank`).  The running tensor is kept C-contiguous, an
    F-ordered ``T`` as ``T.T`` with its modes reversed, so every Gram and
    projection reads a free ``(P, I_n, Q)`` view.
    """
    if T.size == 0:      # no Gram to form: every estimate is 1
        return T, {}, dict.fromkeys(modes, 1)
    flip = not T.flags.c_contiguous and T.flags.f_contiguous
    X = T.T if flip else np.ascontiguousarray(T)
    bases, estimates = {}, {}
    for n in modes:
        k = T.ndim - 1 - n if flip else n
        W, s, M = _mode_pairs(X, k, J)
        r = _rank(s)
        estimates[n] = max(1, r)
        if T.shape[n] <= J or r == 0:     # an all-zero T stays whole
            continue
        W = W[:, :r] * _column_signs(W[:, :r])
        # A tall mode gave its right vectors: its left ones are M.T W / s,
        # orthonormalized by QR as in _project_mode.
        U = np.linalg.qr(M.T @ W)[0] if M.ndim == 2 else W
        X3 = X.reshape(prod(X.shape[:k]), X.shape[k], -1)
        # One GEMM for a (P, I_n, 1) stack; a batched product otherwise.
        Y = X3[:, :, 0] @ U if X3.shape[2] == 1 else np.matmul(U.T, X3)
        X = Y.reshape(X.shape[:k] + (r,) + X.shape[k + 1:])
        bases[n] = U
    return (X.T if flip else X), bases, estimates


def _route_first(split: ModeSplit, shape) -> ModeSplit:
    """``split`` with its route group (:func:`als._route` of the merged
    sizes) moved to the front, the other two in their order.  The merged
    tensor is F-ordered, so the route unfolding that compression and
    recovery read is then a free view."""
    groups = split.group_modes()
    m = _route(split.group_sizes(shape))
    groups = [groups[m]] + groups[:m] + groups[m + 1:]
    cuts = (0, len(groups[0]), len(groups[0]) + len(groups[1]),
            len(split.perm))
    return ModeSplit(tuple(n for g in groups for n in g), cuts)


def _plan(T, J: int):
    """The split :func:`mrcpd_decompose` plans for ``T`` at rank J: the
    pass over every mode (:func:`_truncate_modes`), then
    :func:`plan_unfolding` of its estimates, route group first.  Returns
    ``(split, core, bases, estimates)``; ``cpd analyze`` reports the same
    split."""
    core, bases, found = _truncate_modes(T, J, range(T.ndim))
    estimates = [found[n] for n in range(T.ndim)]
    split = _route_first(plan_unfolding(estimates, J), T.shape)
    return split, core, bases, estimates


def _expand(A, modes, bases, core_shape):
    """A group's merged factor fitted on the core, expanded to the merged
    mode of ``T``: each projected member's basis is applied along that
    member (the Kronecker product of the members' bases, lowest member
    fastest as in :func:`reduce_modes`), which keeps column norms."""
    J = A.shape[1]
    G = A.T.reshape((J,) + tuple(core_shape[n] for n in modes), order="F")
    for i, n in enumerate(modes):
        if n in bases:
            G = np.moveaxis(np.tensordot(bases[n], G, axes=(1, i + 1)),
                            0, i + 1)
    return G.reshape(J, -1, order="F").T


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


def _gevd_start(Y3, J: int, seed):
    """An algebraic start for the rank-J solve of a third-order core: a
    generalized eigenvalue decomposition (GEVD) of two of its slices
    (Leurgans, Ross and Abel, SIAM J. Matrix Anal. Appl. 14(4), 1993;
    Domanov and De Lathauwer, SIAM J. Matrix Anal. Appl. 35(2), 2014).

    Needs two modes ``a < b`` of exactly J entries (the first two) and a
    third mode ``c`` of at least 2; returns ``None`` for any other core.
    The slices ``S1`` and ``S2`` are combinations along ``c`` with Gaussian
    weights drawn from ``seed``.  On an exact model ``S_i = A diag(C^T w_i)
    B^T``, so ``A`` holds the eigenvectors of ``S1 pinv(S2)``.  The weights
    must be generic: the leading singular vectors of an orthonormal factor
    pick one component per slice and leave ``S2`` of rank 1.  Mode ``c``
    has at most J entries, so Gaussian weights need no basis of it first.
    A complex pair of eigenvalues, which noise brings, gives its
    eigenvector's real part and imaginary part as two columns.  Then ``B = (pinv(A) S2)^T``, and
    ``C`` is the least-squares fit to ``A`` and ``B`` (one ALS mode update).
    """
    at_j = [p for p in range(3) if Y3.shape[p] == J]
    if len(at_j) < 2 or Y3.shape[3 - at_j[0] - at_j[1]] < 2:
        return None
    a, b = at_j[:2]
    c = 3 - a - b
    w = np.random.default_rng(seed).standard_normal((Y3.shape[c], 2))
    S1, S2 = np.moveaxis(np.tensordot(Y3, w, axes=(c, 0)), 2, 0)
    vals, V = np.linalg.eig(S1 @ np.linalg.pinv(S2))
    A = V.real.copy()
    # LAPACK lists each pair's eigenvalue of positive imaginary part first.
    pairs = np.flatnonzero(vals.imag > 0)
    A[:, pairs + 1] = V.imag[:, pairs]
    factors = [None] * 3
    factors[a], factors[b] = A, (np.linalg.pinv(A) @ S2).T
    W = _Route(Y3).mttkrp(factors, c)
    factors[c] = _solve_gram(W, hadamard([factors[a].T @ factors[a],
                                          factors[b].T @ factors[b]]))
    return KTensor(factors)


def _finish(T, Y3, kt3, split: ModeSplit, compression, nonneg: bool):
    """The tail of one inner solve, from the core's factors ``kt3`` to a
    checked order-N estimate; returns ``(est, BoundReport)``.

    ``compression`` is ``None`` when the solve ran on the merged tensor
    ``Y3`` itself, else ``(bases, merged_bases, core_shape)``: the two
    other merged factors are then expanded by their bases and the route
    factor is re-estimated from ``Y3`` (:func:`recover_merged_factor`).
    ``fit3`` is measured on ``Y3``, every merged factor is split by
    :func:`kr_project`, and the bound is checked
    (:func:`verify_error_bound`); a violation is raised.
    """
    groups = split.group_modes()
    kt3 = normalize(kt3, all_modes=True)
    if compression is not None:
        bases, merged_bases, core_shape = compression
        factors3 = [None] + [
            _expand(merged_bases[p] @ kt3.factors[p] if p in merged_bases
                    else kt3.factors[p], groups[p], bases, core_shape)
            for p in (1, 2)]
        factors3[0] = recover_merged_factor(Y3, 0, factors3[1:])
        kt3 = normalize(KTensor(factors3), all_modes=True)
    fit3 = _residual_norm(Y3, kt3)

    # Split each merged factor; eps_k sums the weighted projection residuals.
    lam = kt3.weights
    merged = kt3.factors
    if nonneg:
        merged = _orient_for_nonneg(merged, groups)
    eps_k = 0.0
    factors_by_mode = {}
    for G, modes in zip(merged, groups):
        if len(modes) == 1:
            factors_by_mode[modes[0]] = G
            continue
        factors, _ = kr_project(G, [T.shape[n] for n in modes], nonneg=nonneg)
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
    return est, report


def mrcpd_decompose(T, J: int, opts: MrcpdOptions | None = None):
    """Decompose an order >= 4 tensor via merge, solve, project.

    One pass shrinks every original mode above J to at most J orthonormal
    directions and gives the planner its estimates (:func:`_truncate_modes`).
    On the merged core the route mode (the largest merged mode, merged
    first) is whitened at its numerical rank and every other merged mode
    above J projected to at most J orthonormal directions
    (:func:`_project_mode`); the inner solve runs on that core, the two
    other factors are expanded by their bases, and the route factor is
    re-estimated from the uncompressed merged tensor
    (:func:`recover_merged_factor`) before ``fit3`` is measured.  When no
    mode, original or merged, is above J, the solve runs on the merged
    tensor itself.  A core with two modes at J is solved once from a GEVD
    start (:func:`_gevd_start`); if that solve did not converge, or if
    ``final_err - fit3 > MISS_REL * final_err`` plus the bound's round-off
    slack, and ``restarts > 1``, the random restarts run too and the
    estimate with the lower ``final_err`` is kept.  Every tail that runs
    checks the bound (:func:`_finish`).

    Returns ``(KTensor, SolveReport, BoundReport)``: the order-N estimate in
    original mode order (normalized), the kept inner solve's own report
    (its fits are on the core) with ``runtime_s`` replaced by the total
    pipeline wall-clock, and that estimate's bound check.  A J above the
    feasible rank of the merged tensor (the product of the two smaller
    merged sizes, when the largest is above J) raises ``ValueError`` before
    the merge.  Raises if the certified bound fails, which indicates a bug.
    """
    T, J, opts = _checked_problem(T, J, opts, MrcpdOptions, 4)
    if opts.solver_opts.init is not None:
        raise ValueError("mrcpd_decompose does not take solver_opts.init: the "
                         "inner solver runs on the merged third-order tensor")
    solver = get_solver("als")

    start = perf_counter()
    split = opts.split
    if split is None:
        split, core, bases, _ = _plan(T, J)
    if len(split.perm) != T.ndim:
        raise ValueError(f"split covers {len(split.perm)} modes, tensor has "
                         f"{T.ndim}")
    if split.num_groups != 3:
        raise ValueError(f"the pipeline solves a third-order core; the split "
                         f"has {split.num_groups} groups")
    sizes = split.group_sizes(T.shape)
    m = _route(sizes)
    # Compression and recovery take the merged tensor's route mode
    # (als._route).  Compressed, it keeps at most the product of the other
    # two sizes, and recovering its factor needs J of them.
    feasible = prod(sizes) // sizes[m]
    if sizes[m] > J > feasible:
        raise ValueError(
            f"rank {J} exceeds the feasible rank {feasible} of the merged "
            f"{'x'.join(map(str, sizes))} tensor; use a rank of at most "
            f"{feasible} or another split")
    if opts.split is not None:
        split = _route_first(split, T.shape)
        core, bases, _ = _truncate_modes(
            T, J, [n for n in range(T.ndim) if T.shape[n] > J])
    Y3 = reduce_modes(T, split)

    # The inner solves run on a core of at most J per mode (Bro and Andersson's
    # compression before the solve): the pass has shrunk every original
    # mode above J; the merged core's route mode (merged mode 0) is
    # whitened at its numerical rank and every other merged mode still
    # above J projected onto an orthonormal basis.
    compressed = bool(bases) or sizes[m] > J
    core_shape, Y3s = core.shape, Y3
    if compressed:
        Y3s = _whiten_mode(reduce_modes(core, split) if bases else Y3, 0, J)
    del core
    merged_bases = {}
    for p in (1, 2):
        if Y3s.shape[p] > J:
            merged_bases[p], Y3s = _project_mode(Y3s, p, J)
    compression = (bases, merged_bases, core_shape) if compressed else None
    start3 = _gevd_start(Y3s, J, opts.solver_opts.seed)
    if start3 is None:
        kt3, rep = _solve_with_restarts(solver, Y3s, J, opts)
    else:
        kt3, rep = solver(Y3s, J, replace(opts.solver_opts, init=start3))
    est, report = _finish(T, Y3, kt3, split, compression, opts.nonneg)
    # After the algebraic start, a miss shows in the projection: final_err
    # far above fit3.
    if start3 is not None and opts.restarts > 1 and (
            not rep.converged or report.final_err - report.fit3
            > MISS_REL * report.final_err
            + BOUND_SLACK_REL * float(np.linalg.norm(T))):
        kt3, rep_r = _solve_with_restarts(solver, Y3s, J, opts)
        est_r, report_r = _finish(T, Y3, kt3, split, compression, opts.nonneg)
        if report_r.final_err < report.final_err:
            est, rep, report = est_r, rep_r, report_r
    rep = replace(rep, runtime_s=perf_counter() - start)
    return est, rep, report
