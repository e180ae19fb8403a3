"""Matrix kernels shared by the decomposition routines.

Khatri-Rao products follow the same convention as the canonical tensor
layout: ``khatri_rao([A, B])`` equals ``B (kr) A`` in the usual columnwise
Kronecker notation, i.e. the first listed matrix varies fastest down the
rows.  This makes ``matricize(reconstruct(kt), n)`` equal
``A_n @ khatri_rao(all other factors, in mode order).T`` with no reordering.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Entries of M per streamed QR block (2 MB of float64).
TSQR_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SvdResult:
    """Rank-``r`` factorization ``M ~ U @ diag(s) @ V.T``.

    ``U`` is ``m x r`` with orthonormal columns, ``s`` the leading singular
    values (descending), ``V`` ``n x r`` with orthonormal columns.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


def khatri_rao(matrices) -> np.ndarray:
    """Columnwise Kronecker product of a list of matrices.

    All inputs must share the same column count J.  Column ``j`` of the
    result stacks the Kronecker product of the ``j``-th columns with the
    first listed matrix varying fastest, so the output has
    ``prod(rows)`` rows.
    """
    mats = [np.asarray(M, dtype=np.float64) for M in matrices]
    if not mats:
        raise ValueError("khatri_rao needs at least one matrix")
    cols = {M.shape[1] for M in mats if M.ndim == 2}
    if any(M.ndim != 2 for M in mats) or len(cols) != 1:
        raise ValueError("khatri_rao inputs must be matrices with a common "
                         "column count")
    out = mats[0]
    for M in mats[1:]:
        out = (M[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


def hadamard(matrices) -> np.ndarray:
    """Entrywise product of same-shaped matrices."""
    mats = [np.asarray(M, dtype=np.float64) for M in matrices]
    if not mats:
        raise ValueError("hadamard needs at least one matrix")
    shape = mats[0].shape
    if any(M.shape != shape for M in mats):
        raise ValueError("hadamard inputs must share one shape")
    out = mats[0].copy()
    for M in mats[1:]:
        out *= M
    return out


def truncated_svd(M, r: int) -> SvdResult:
    """Leading ``r`` singular triplets of a matrix.

    Computed by full factorization then truncation, so the result is
    deterministic.  Requires ``1 <= r <= min(M.shape)``.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("truncated_svd expects a matrix")
    if not 1 <= r <= min(M.shape):
        raise ValueError(f"rank {r} out of range for shape {M.shape}")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return SvdResult(U[:, :r].copy(), s[:r].copy(), Vt[:r].T.copy())


def _tsqr_r(M) -> np.ndarray:
    """R factor of a QR of ``M.T``, accumulated over column blocks of ``M``.

    Each step factors the previous R stacked on one block, so the working
    set stays at a block plus R and ``M`` is never copied whole (sequential
    TSQR, Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34(1),
    2012).  ``R.T @ R == M @ M.T`` up to rounding.
    """
    m, n = M.shape
    block = max(2 * m, TSQR_BLOCK_ENTRIES // m)
    R = np.zeros((0, m))
    for start in range(0, n, block):
        R = np.linalg.qr(np.vstack([R, M[:, start:start + block].T]),
                         mode="r")
    return R


def left_singular_pairs(M, rtol: float, r: int | None = None):
    """Leading left singular pairs ``(U, s)`` of a wide matrix (``m <= n``).

    Returns ``U`` (``m x r``, orthonormal columns) and the ``r`` largest
    singular values ``s`` in descending order; ``r=None`` keeps all ``m``.
    Callers decide with ``s[i] > rtol * s[0]``, and that verdict is exact
    for every returned value.  For a tall matrix pass its transpose, whose
    left pairs are the matrix's right pairs.

    The fast route takes ``eigh`` of the ``m x m`` Gram ``M @ M.T``.  Forming
    and diagonalizing it moves each eigenvalue by at most
    ``delta = 2 (n + m) eps ||M||_F^2``, so the Gram route is kept only when
    every returned eigenvalue is farther than ``delta`` from the squared
    cutoff.  Otherwise (near-deficient rank, or a Gram that overflows) the
    pairs come from the SVD of the small R factor of a streamed QR of
    ``M.T`` (Chan's R-SVD, ACM TOMS 8(1), 1982), which is as accurate as a
    full SVD of ``M``.  Non-finite entries are rejected.

    On the fast route ``U`` captures all but at most ``2 r delta`` of the
    largest possible ``||U.T @ M||_F^2``, and ``(U / s).T @ M`` has
    orthonormal rows to within about ``delta / s[-1]**2``.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("left_singular_pairs expects a matrix")
    m, n = M.shape
    if m > n:
        raise ValueError(f"expected a wide matrix, got shape {M.shape}")
    r = m if r is None else r
    if not 1 <= r <= m:
        raise ValueError(f"rank {r} out of range for shape {M.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        G = M @ M.T
        frob2 = float(np.trace(G))
    if np.isfinite(frob2):
        lam, V = np.linalg.eigh(G)
        lam, V = lam[::-1][:r], V[:, ::-1][:, :r]
        delta = 2.0 * (n + m) * np.finfo(np.float64).eps * frob2
        cut_hi = rtol ** 2 * (lam[0] + delta)
        cut_lo = rtol ** 2 * (lam[0] - delta)
        if np.all((lam - delta > cut_hi) | (lam + delta <= cut_lo)):
            return V, np.sqrt(np.maximum(lam, 0.0))
    elif not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    _, s, Vt = np.linalg.svd(_tsqr_r(M), full_matrices=False)
    return Vt[:r].T.copy(), s[:r].copy()


def _orient(u, v):
    """Flip signs so the first entry of ``u`` that is not negligible is >= 0."""
    nz = np.flatnonzero(np.abs(u) > 1e-12 * np.abs(u).max())
    if nz.size and u[nz[0]] < 0:
        return -u, -v
    return u, v


def leading_triplet(M, max_iters: int = 500, tol: float = 1e-12):
    """Dominant singular triplet ``(u, sigma, v)`` by alternating power steps.

    Each half-step solves the rank-1 least-squares problem for one side:
    ``a <- M v / ||v||^2`` then ``v <- M.T a / ||a||^2``, so the residual
    ``||M - a v.T||_F`` never increases.  Iteration stops when the singular
    value estimate stabilizes to ``tol`` (relative) or after ``max_iters``
    sweeps, in which case a warning is issued and the best iterate returned.

    Sign convention: the first non-negligible entry of ``u`` is nonnegative.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("leading_triplet expects a matrix")
    norms = np.linalg.norm(M, axis=1)
    if not norms.any():
        raise ValueError("leading_triplet on a zero matrix")
    # Deterministic start: the row with the largest norm lies in the row
    # space, which for rank-1 inputs is already the right singular direction.
    v = M[int(np.argmax(norms))].copy()
    if np.linalg.norm(v) == 0:  # pragma: no cover - excluded by the check above
        raise ValueError("leading_triplet failed to initialize")
    sigma_prev = 0.0
    converged = False
    for _ in range(max_iters):
        a = M @ v / (v @ v)
        na = a @ a
        if na == 0:
            raise ValueError("leading_triplet start vector lies in the null space")
        v = M.T @ a / na
        sigma = float(np.linalg.norm(a) * np.linalg.norm(v))
        if abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            converged = True
            break
        sigma_prev = sigma
    if not converged:
        warnings.warn("leading_triplet hit the iteration cap; returning the "
                      "best iterate", RuntimeWarning)
    u = a / np.linalg.norm(a)
    v = v / np.linalg.norm(v)
    sigma = float(u @ M @ v)
    if sigma < 0:  # dominant pair came out with opposite orientation
        v = -v
        sigma = -sigma
    u, v = _orient(u, v)
    return u, sigma, v


def ls_solve(A, B) -> np.ndarray:
    """Minimum-norm least-squares solution of ``A X = B``.

    Singular values below ``max(A.shape) * eps * sigma_1`` are treated as
    zero, matching the pseudo-inverse cutoff used throughout the package.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != B.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} and {B.shape}")
    rcond = max(A.shape) * np.finfo(np.float64).eps
    X, *_ = np.linalg.lstsq(A, B, rcond=rcond)
    return X


def pinv_cutoff(A) -> float:
    """The relative singular-value cutoff used by :func:`ls_solve`."""
    return max(np.asarray(A).shape) * np.finfo(np.float64).eps
