"""Alternating least squares for the CP model, plus a small solver registry.

The mode-reduction pipeline runs its inner third-order solve through the
registry entry ``"als"``, looked up on every call, so registering another
conforming solver under that name replaces the pipeline's solve.  The
default entry is the ALS routine below restricted to third-order input; it
resolves :func:`cp_als` when called, so patching ``cp_als`` reaches it too.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from math import prod
from time import perf_counter

import numpy as np

from .ktensor import KTensor, normalize
from .linalg import hadamard, khatri_rao, pinv_cutoff
from .tensor import matricize

UNFOLDING_CACHE_BYTES = 1 << 30


def _as_count(value, name: str) -> int:
    """``value`` as a Python int (from any Python or NumPy integer), or a
    one-line ``ValueError`` that names the parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class SolverOptions:
    """Iteration controls shared by the registered solvers.

    ``seed`` feeds ``numpy.random.default_rng`` for the random init (ignored
    when ``init`` supplies a starting KTensor).  ``tol`` is the absolute
    change in fit between sweeps that counts as converged.
    """

    max_iters: int = 100
    tol: float = 1e-8
    seed: object = None
    init: KTensor | None = None

    def __post_init__(self):
        self.max_iters = _as_count(self.max_iters, "max_iters")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass
class SolveReport:
    iterations: int
    fit_trace: list[float] = field(default_factory=list)
    final_fit: float = float("nan")
    runtime_s: float = 0.0
    converged: bool = False


def _solve_gram(W, V) -> np.ndarray:
    """``W @ inv(V)`` for the symmetric positive semidefinite Gram ``V``.

    Uses the Cholesky factor ``V = L L^T``: ``W inv(V) = (W inv(L)^T)
    inv(L)``, two GEMMs after a triangular inverse.  Cholesky breakdown, or
    ``(min diag L / max diag L)^2`` (a condition estimate) at or below
    :func:`pinv_cutoff`, falls back to the pseudo-inverse with that cutoff.
    NumPy only: SciPy's LAPACK brings a second BLAS thread pool that
    contends with NumPy's inside the sweep.
    """
    cutoff = pinv_cutoff(V)
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        L = None
    if L is not None:
        d = np.diagonal(L)
        if (d.min() / d.max()) ** 2 > cutoff:
            Linv = np.linalg.inv(L)
            return (W @ Linv.T) @ Linv
    return W @ np.linalg.pinv(V, rcond=cutoff)


def _route(shape) -> int:
    """The mode whose unfolding every MTTKRP of a tensor of ``shape``
    reads: its largest mode (lowest index on ties), for every mode ``n``.
    """
    return max(range(len(shape)), key=lambda p: (shape[p], -p))


def _unfoldings(T) -> dict:
    """The one unfolding the MTTKRPs of ``T`` read, keyed by its mode.

    Empty when it would exceed ``UNFOLDING_CACHE_BYTES``: past that,
    re-matricizing inside the sweep beats holding the copy.
    """
    if T.nbytes > UNFOLDING_CACHE_BYTES:
        return {}
    m = _route(T.shape)
    return {m: matricize(T, m)}


def _mttkrp(T, factors, n: int, unfoldings, routed=None) -> np.ndarray:
    """``matricize(T, n) @ khatri_rao(factors except n)``, contracting the
    tensor's largest mode M (:func:`_route`) first.

    Mode M reads its own unfolding.  It leaves out of the Khatri-Rao
    product the other mode f that sits next to M in the unfolding's memory
    (the last other mode of a C-ordered unfolding, else the first), when
    ``I_M * I_f`` is below the product of the other sizes: the unfolding is
    then viewed as an ``(I_M I_f) x rest`` matrix (a strided one is copied),
    multiplied by the Khatri-Rao product of the remaining N - 2 factors, and
    reduced against ``A_f`` by one ``einsum``.  No third-order shape passes
    that test; there, and at order 2, the unfolding multiplies the product
    of all the other factors.  Any other mode ``n`` starts from one GEMM
    with the mode-M unfolding, ``Z = matricize(T, M).T @ A_M``, whose
    ``prod / I_M`` rows are no more than the ``prod / I_n`` of the product
    it avoids.  ``Z``'s rows run over the other modes, lowest fastest, so
    ``Z.T`` reshapes for free to (J, modes after n, I_n, modes before n) and
    is then reduced against the remaining factors: the single one at order
    3, their Khatri-Rao product (same row order) above; at order 2 ``Z`` is
    the product.  The unfolding comes from ``unfoldings`` when cached
    there, else is formed.  ``routed`` keeps ``Z.T`` under M together with
    the ``A_M`` it was formed from, and a later call reuses it while
    ``factors[M]`` is still that array: the sweep replaces a factor, never
    edits it, so ``Z`` is formed once per sweep, at the first mode updated
    after M.  Mode M's own call drops it, so the stale product is freed
    before the next one is formed.
    """
    m = _route(T.shape)
    if m == n:
        if routed is not None:
            routed.pop(m, None)    # A_M is about to be replaced
        U = unfoldings[m] if m in unfoldings else matricize(T, m)
        others = [p for p in range(T.ndim) if p != m]
        c_order = U.flags.c_contiguous and not U.flags.f_contiguous
        f = others[-1] if c_order else others[0]
        I_m, I_f = T.shape[m], T.shape[f]
        if I_m * I_f < U.shape[1]:
            K = khatri_rao([factors[p] for p in others if p != f])
            Y = np.reshape(U, (I_m * I_f, -1),
                           order="C" if c_order else "F") @ K
            if c_order:
                return np.einsum("ifj,fj->ij", Y.reshape(I_m, I_f, -1),
                                 factors[f])
            return np.einsum("fij,fj->ij", Y.reshape(I_f, I_m, -1),
                             factors[f])
        K = khatri_rao([factors[p] for p in others])
        # (K.T @ U.T).T, not U @ K: the same product, but on a tall
        # C-ordered U this orientation is faster and touches about 12 MB
        # fewer BLAS work-buffer pages.
        return (K.T @ U.T).T
    routed = {} if routed is None else routed
    A_m, Zt = routed.get(m, (None, None))
    if A_m is not factors[m]:
        U = unfoldings[m] if m in unfoldings else matricize(T, m)
        # Z.T, not U.T @ A_M: the same GEMM, but this orientation leaves
        # about 0.7 MB fewer BLAS work-buffer pages resident on a
        # 48x400x20 core.
        Zt = factors[m].T @ U
        routed[m] = (factors[m], Zt)
    rest = [A for p, A in enumerate(factors) if p not in (n, m)]
    if not rest:
        return Zt.T
    K = rest[0] if len(rest) == 1 else khatri_rao(rest)
    J = Zt.shape[0]
    low = prod(T.shape[p] for p in range(n) if p != m)
    return np.einsum("jhil,hlj->ij", Zt.reshape(J, -1, T.shape[n], low),
                     K.reshape(-1, low, J))


def cp_als(T, J: int, opts: SolverOptions | None = None):
    """Rank-``J`` CP decomposition by alternating least squares.

    Each mode update solves its linear least-squares problem through the
    Gram/Hadamard identity (the J x J normal matrix is the entrywise product
    of the other factors' Gram matrices, solved by Cholesky), so the
    residual never increases.  Every MTTKRP reads the unfolding of the
    tensor's largest mode M (see :func:`_mttkrp`), so a sweep caches one
    unfolding and holds one tensor-sized product at a time: M's own
    update drops the previous sweep's route product, and, wherever that
    builds the smaller intermediate (orders above 3 only), forms the
    Khatri-Rao product of N - 2 factors instead of all N - 1 others.
    The fit is tracked per sweep from cached cross products, not by forming
    the dense reconstruction.

    Returns ``(KTensor, SolveReport)``; the KTensor is normalized (unit
    columns outside the last mode, scale in the weights).
    """
    T = np.asarray(T)
    if np.iscomplexobj(T):
        raise ValueError("cp_als input is complex; it decomposes real tensors")
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2:
        raise ValueError("cp_als needs an order >= 2 tensor")
    J = _as_count(J, "rank")
    if J < 1:
        raise ValueError("rank must be positive")
    if not np.isfinite(T).all():
        raise ValueError("cp_als input has NaN or Inf entries")
    opts = opts if opts is not None else SolverOptions()
    N = T.ndim
    norm_y = float(np.linalg.norm(T))
    if norm_y == 0:
        raise ValueError("cp_als on a zero tensor")
    max_rank = min(prod(T.shape) // s for s in T.shape)
    if J > max_rank:
        warnings.warn(f"rank {J} exceeds the largest feasible rank "
                      f"{max_rank} for shape {T.shape}", RuntimeWarning)

    start = perf_counter()
    unfoldings = _unfoldings(T)
    routed = {}

    if opts.init is not None:
        kt0 = opts.init
        if kt0.shape != T.shape or kt0.rank != J:
            raise ValueError(f"init KTensor has shape {kt0.shape} rank "
                             f"{kt0.rank}, expected {T.shape} rank {J}")
        factors = [A.copy() for A in kt0.factors]
        factors[-1] = factors[-1] * kt0.weights
    else:
        rng = np.random.default_rng(opts.seed)
        factors = []
        for s in T.shape:
            A = rng.standard_normal((s, J))
            norms = np.linalg.norm(A, axis=0)
            norms[norms == 0] = 1.0
            factors.append(A / norms)
    grams = [A.T @ A for A in factors]

    fit_trace: list[float] = []
    fit_prev = None
    converged = False
    for sweep in range(1, opts.max_iters + 1):
        for n in range(N):
            W = _mttkrp(T, factors, n, unfoldings, routed)
            V = hadamard([grams[p] for p in range(N) if p != n])
            factors[n] = _solve_gram(W, V)
            grams[n] = factors[n].T @ factors[n]
        # V excludes the last mode, W is its cross product: enough for the
        # residual without reconstructing the tensor.
        norm_est_sq = float(np.sum(V * grams[N - 1]))
        inner = float(np.sum(factors[N - 1] * W))
        resid = np.sqrt(max(norm_y ** 2 - 2.0 * inner + norm_est_sq, 0.0))
        fit_now = 1.0 - resid / norm_y
        if not np.isfinite(fit_now):
            raise RuntimeError(f"cp_als produced a non-finite fit at sweep "
                               f"{sweep}; aborting")
        fit_trace.append(fit_now)
        if fit_prev is not None and abs(fit_now - fit_prev) < opts.tol:
            converged = True
            break
        fit_prev = fit_now

    kt = normalize(KTensor(factors))
    report = SolveReport(iterations=len(fit_trace), fit_trace=fit_trace,
                         final_fit=fit_trace[-1],
                         runtime_s=perf_counter() - start, converged=converged)
    return kt, report


def _als_order3(T, J, opts):
    T = np.asarray(T)
    if T.ndim != 3:
        raise ValueError(f"the registered ALS solver expects a third-order "
                         f"tensor, got order {T.ndim}")
    return cp_als(T, J, opts)


_SOLVERS = {"als": _als_order3}


def register_solver(name: str, solve) -> None:
    """Register a third-order solver ``solve(T3, J, opts) -> (KTensor, SolveReport)``."""
    if not callable(solve):
        raise TypeError("solver must be callable")
    _SOLVERS[str(name)] = solve


def get_solver(name: str):
    """Look up a registered solver by name."""
    try:
        return _SOLVERS[name]
    except KeyError:
        raise KeyError(f"no solver registered under {name!r}; "
                       f"known: {sorted(_SOLVERS)}") from None
