"""Alternating least squares for the CP model, plus a small solver registry.

The mode-reduction pipeline runs its inner third-order solve through the
registry entry ``"als"``, looked up on every call, so registering another
conforming solver under that name replaces the pipeline's solve.  The
default entry is the ALS routine below restricted to third-order input; it
resolves :func:`cp_als` when called, so patching ``cp_als`` reaches it too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import prod
from time import perf_counter

import numpy as np

from .ktensor import KTensor, normalize
from .linalg import hadamard, khatri_rao, pinv_cutoff
from .tensor import matricize

UNFOLDING_CACHE_BYTES = 1 << 30


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


def _route(shape, n: int) -> int:
    """Mode whose unfolding the mode-``n`` MTTKRP reads.

    That is the largest other mode L (lowest index on ties) when it is
    larger than mode ``n``, else ``n`` itself.
    """
    L = max((p for p in range(len(shape)) if p != n),
            key=lambda p: (shape[p], -p))
    return L if shape[L] > shape[n] else n


def _unfoldings(T) -> dict:
    """The unfoldings the MTTKRP routes of ``T`` read, keyed by mode.

    Empty when together they would exceed ``UNFOLDING_CACHE_BYTES``: past
    that, re-matricizing inside the sweep beats holding the copies.
    """
    modes = sorted({_route(T.shape, n) for n in range(T.ndim)})
    if T.nbytes * len(modes) > UNFOLDING_CACHE_BYTES:
        return {}
    return {m: matricize(T, m) for m in modes}


def _mttkrp(T, factors, n: int, unfoldings, routed=None) -> np.ndarray:
    """``matricize(T, n) @ khatri_rao(factors except n)``, by the contraction
    order with the smaller temporary.

    When the route (:func:`_route`) is another mode L, one GEMM with the
    mode-L unfolding, ``Z = matricize(T, L).T @ A_L``, contracts the
    largest mode first; ``Z`` has ``prod / I_L`` rows, fewer than the
    ``prod / I_n`` of the Khatri-Rao product it avoids.  ``Z``'s rows run
    over the other modes, lowest fastest, so ``Z.T`` reshapes for free to
    (J, modes after n, I_n, modes before n) and is then reduced against
    the remaining factors: the single one at order 3, their Khatri-Rao
    product (same row order) above; at order 2 ``Z`` is the product.
    Unfoldings come from ``unfoldings`` when cached there, else are formed.
    ``routed`` keeps ``Z.T`` per route mode L together with the ``A_L`` it
    was formed from, and a later call reuses it while ``factors[L]`` is
    still that array: the sweep replaces a factor, never edits it.
    """
    m = _route(T.shape, n)
    if m == n:
        U = unfoldings[m] if m in unfoldings else matricize(T, m)
        K = khatri_rao([A for p, A in enumerate(factors) if p != n])
        # (K.T @ U.T).T, not U @ K: the same product, but on a tall
        # C-ordered U this orientation is faster and touches about 12 MB
        # fewer BLAS work-buffer pages.
        return (K.T @ U.T).T
    routed = {} if routed is None else routed
    A_m, Zt = routed.get(m, (None, None))
    if A_m is not factors[m]:
        U = unfoldings[m] if m in unfoldings else matricize(T, m)
        # Z.T, not U.T @ A_L: the same GEMM, but this orientation leaves
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
    residual never increases.  Each MTTKRP contracts the largest mode
    first when that makes a smaller temporary (see :func:`_mttkrp`), so a
    lopsided tensor caches and reads fewer unfoldings.
    The fit is tracked per sweep from cached cross products, not by forming
    the dense reconstruction.

    Returns ``(KTensor, SolveReport)``; the KTensor is normalized (unit
    columns outside the last mode, scale in the weights).
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2:
        raise ValueError("cp_als needs an order >= 2 tensor")
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
    T = np.asarray(T, dtype=np.float64)
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
