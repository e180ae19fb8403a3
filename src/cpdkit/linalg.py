"""Matrix kernels shared by the decomposition routines.

Khatri-Rao products follow the same convention as the canonical tensor
layout: ``khatri_rao([A, B])`` equals ``B (kr) A`` in the usual columnwise
Kronecker notation, i.e. the first listed matrix varies fastest down the
rows.  This makes ``matricize(reconstruct(kt), n)`` equal
``A_n @ khatri_rao(all other factors, in mode order).T`` with no reordering.
It also holds the one column-congruence rule, the one seed rule and the
input rules that every public count, real scalar and array goes through.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

# Entries of M per streamed QR block (2 MB of float64).
TSQR_BLOCK_ENTRIES = 1 << 18


def _as_count(value, name: str, low, high=None) -> int:
    """``value`` as a Python int in ``low..high`` (``None``: no limit).
    Python and NumPy integers pass; a float never does, so nothing is
    truncated, and nor does a ``bool``: ``rank=True`` is a slip, not 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if high is not None and not low <= count <= high:
        raise ValueError(f"{name} {count} out of range {low}..{high}")
    if low is not None and count < low:
        raise ValueError(f"{name} must be >= {low}, got {count}")
    return count


def _as_counts(values, name: str, low, min_len: int = 1) -> tuple:
    """The count rule over a sequence of at least ``min_len`` entries."""
    try:
        counts = tuple(_as_count(v, name, None) for v in values)
    except (TypeError, ValueError):    # not iterable, or not integers
        counts = ()
    if len(counts) < min_len:
        raise ValueError(f"{name} must be {min_len} or more integers, got "
                         f"{values!r}")
    if any(c < low for c in counts):
        raise ValueError(f"{name} must be >= {low}, got {list(counts)}")
    return counts


def _as_real(value, name: str, low=None) -> float:
    """``value`` as a finite Python float, at least ``low`` if given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return float(value)


def _as_array(x, name: str, min_ndim: int = 0) -> np.ndarray:
    """``x`` as a float64 array of order at least ``min_ndim``.  Complex or
    non-numeric input is rejected, never cut to its real part.  A float64
    array is returned as is: no copy, and no pass over its entries."""
    try:
        A = np.asarray(x)
    except ValueError:                 # a ragged nest of sequences
        A = np.asarray(None)
    if A.dtype.kind not in "biuf":
        what = "complex" if A.dtype.kind == "c" else f"a {type(x).__name__}"
        raise ValueError(f"{name} is {what}; it must hold real numbers")
    if A.ndim < min_ndim:
        raise ValueError(f"{name} must have order >= {min_ndim}, got {A.ndim}")
    return A.astype(np.float64, copy=False)


def _as_arrays(values, name: str) -> list:
    """The array rule over every entry of a sequence."""
    if not hasattr(values, "__iter__"):
        raise ValueError(f"{name} must be a sequence of arrays, got "
                         f"{type(values).__name__}")
    return [_as_array(x, name) for x in values]


def khatri_rao(matrices) -> np.ndarray:
    """Columnwise Kronecker product of a list of matrices.

    All inputs must share the same column count J.  Column ``j`` of the
    result stacks the Kronecker product of the ``j``-th columns with the
    first listed matrix varying fastest, so the output has
    ``prod(rows)`` rows.
    """
    mats = _as_arrays(matrices, "matrices")
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
    mats = _as_arrays(matrices, "matrices")
    if not mats:
        raise ValueError("hadamard needs at least one matrix")
    shape = mats[0].shape
    if any(M.shape != shape for M in mats):
        raise ValueError("hadamard inputs must share one shape")
    out = mats[0].copy()
    for M in mats[1:]:
        out *= M
    return out


def _row_blocks(M):
    """Row blocks of ``M.T`` for a matrix ``M`` or a ``(P, m, Q)`` stack.

    A stack stands for the ``m x (P Q)`` matrix whose columns are its
    fibres ``M[p, :, q]``; a matrix is the stack ``M[None]``.  Each block
    has about ``max(2 m, TSQR_BLOCK_ENTRIES // m)`` rows and follows the
    memory order of a C-contiguous stack, so none of it is copied except a
    block at a time (a view when ``Q`` is that large, or 1).  The rows come
    in a fixed order that differs from the matrix's column order, which
    changes no Gram, residual norm or R factor's singular values.
    """
    X = M if M.ndim == 3 else M[None]
    P, m, Q = X.shape
    rows = max(2 * m, TSQR_BLOCK_ENTRIES // m)
    if Q >= rows:
        for p in range(P):
            for q in range(0, Q, rows):
                yield X[p, :, q:q + rows].T
    else:
        step = rows // Q
        for p in range(0, P, step):
            yield X[p:p + step].transpose(0, 2, 1).reshape(-1, m)


def _gram(M) -> np.ndarray:
    """``M @ M.T`` for a matrix or a stack (see :func:`_row_blocks`): one
    GEMM when the matrix is a view of the stack, else a sum over blocks."""
    X = M if M.ndim == 3 else M[None]
    if X.shape[0] == 1:
        return X[0] @ X[0].T
    if X.shape[2] == 1:
        return X[:, :, 0].T @ X[:, :, 0]
    G = np.zeros((X.shape[1],) * 2)
    for Y in _row_blocks(X):
        G += Y.T @ Y
    return G


def _tsqr_r(M) -> np.ndarray:
    """R factor of a QR of ``M.T``, accumulated over :func:`_row_blocks`.

    Each step factors the previous R stacked on one block, so the working
    set stays at a block plus R and ``M`` is never copied whole (sequential
    TSQR, Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34(1),
    2012).  ``R.T @ R == M @ M.T`` up to rounding.
    """
    m = M.shape[-2]
    R = np.zeros((0, m))
    for Y in _row_blocks(M):
        R = np.linalg.qr(np.vstack([R, Y]), mode="r")
    return R


def _deflated_residual(M, V) -> float:
    """``||M - V @ (V.T @ M)||_F`` over :func:`_row_blocks`, with one
    block-sized buffer for every block (the first block is the largest)."""
    total = 0.0
    buf = None
    for Y in _row_blocks(M):
        if buf is None:
            buf = np.empty(Y.shape)
        R = buf[:len(Y)]
        np.matmul(Y @ V, V.T, out=R)
        R -= Y
        total += float(np.vdot(R, R))
    return float(np.sqrt(total))


def left_singular_pairs(M, rtol: float, r: int | None = None, name="M"):
    """Leading left singular pairs ``(U, s)`` of a wide matrix (``m <= n``).

    ``M`` may also be a ``(P, m, Q)`` stack standing for the ``m x (P Q)``
    matrix of its fibres ``M[p, :, q]`` (see :func:`_row_blocks`); the
    Gram, the deflated residual and the streamed QR then read it in memory
    order, with no copy of the matrix.

    Returns ``U`` (``m x r``, orthonormal columns) and the ``r`` largest
    singular values ``s`` in descending order; ``r=None`` keeps all ``m``.
    Callers decide with ``s[i] > rtol * s[0]``, and that verdict is exact
    for every returned value.  For a tall matrix pass its transpose, whose
    left pairs are the matrix's right pairs.

    The fast route takes ``eigh`` of the ``m x m`` Gram ``M @ M.T``.  Forming
    and diagonalizing it moves each eigenvalue by at most
    ``delta = 2 (n + m) eps ||M||_F^2``, so the Gram route is kept when
    every returned eigenvalue is farther than ``delta`` from the squared
    cutoff.  When some are not, the ``k`` leading eigenvectors ``V_k`` that
    are clearly kept are deflated: ``||M - V_k V_k^T M||_F`` bounds
    ``sigma_{k+1}`` (Eckart and Young, Psychometrika 1, 1936), so if it
    plus a rounding term ``4 (m + k + 2) sqrt(k) eps ||M||_F`` is at most
    ``rtol`` times the lower bound ``sqrt(lam_1 - delta)`` on ``sigma_1``,
    every value past ``k`` is dropped and is reported at or below the
    cutoff.  Otherwise (a singular value near the cutoff, or a Gram that
    overflows) the pairs come from the SVD of the small R factor of a
    streamed QR of ``M.T`` (Chan's R-SVD, ACM TOMS 8(1), 1982), which is as
    accurate as a full SVD of ``M``.  NaN or Inf entries fail, as ``name``.

    On the Gram routes the first ``k`` columns of ``U`` capture all but at
    most ``2 k delta`` of the largest possible ``||U_k.T @ M||_F^2``, and
    ``(U_k / s_k).T @ M`` has orthonormal rows to within about
    ``delta / s[k-1]**2``.
    """
    M = _as_array(M, "M")
    if M.ndim not in (2, 3):
        raise ValueError("left_singular_pairs expects a matrix or a stack")
    m = M.shape[-2]
    n = M.size // max(m, 1)
    if m > n:
        raise ValueError(f"expected a wide matrix, got shape {M.shape}")
    r = m if r is None else _as_count(r, "rank", 1, m)
    with np.errstate(over="ignore", invalid="ignore"):
        G = _gram(M)
        frob2 = float(np.trace(G))
    if np.isfinite(frob2):
        lam, V = np.linalg.eigh(G)
        lam, V = lam[::-1][:r], V[:, ::-1][:, :r]
        eps = np.finfo(np.float64).eps
        delta = 2.0 * (n + m) * eps * frob2
        kept = lam - delta > rtol ** 2 * (lam[0] + delta)
        s = np.sqrt(np.maximum(lam, 0.0))
        if np.all(kept | (lam + delta <= rtol ** 2 * (lam[0] - delta))):
            return V, s
        k = int(np.sum(kept))
        if k:
            rounding = 4.0 * (m + k + 2) * np.sqrt(k) * eps * np.sqrt(frob2)
            tail = _deflated_residual(M, V[:, :k]) + rounding
            if tail <= rtol * np.sqrt(max(lam[0] - delta, 0.0)):
                s[k:] = np.minimum(s[k:], rtol * s[0])
                return V, s
    elif not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite (NaN or Inf) entries")
    _, s, Vt = np.linalg.svd(_tsqr_r(M), full_matrices=False)
    return Vt[:r].T.copy(), s[:r].copy()


def pinv_cutoff(A) -> float:
    """The relative singular-value cutoff ``max(A.shape) * eps`` used by
    the rank verdicts of :func:`compress_mode` and the pseudo-inverse
    fall-back of the ALS normal-equation solve."""
    return max(np.asarray(A).shape) * np.finfo(np.float64).eps


def _column_signs(U) -> np.ndarray:
    """``+1`` or ``-1`` per column of ``U``, so that after scaling each
    column's first entry above ``1e-12`` times its peak magnitude is
    nonnegative (``+1`` for a zero column)."""
    mag = np.abs(U)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    lead = U[first, np.arange(U.shape[1])]
    return np.where(lead < 0, -1.0, 1.0)


def _congruence(A, B) -> np.ndarray:
    """``|cosine|`` between every column of ``A`` and every column of ``B``
    (a ``J_A x J_B`` matrix); a zero column scores 0 against everything.
    Columns are scaled to unit norm before the one product."""
    def unit(M):
        norms = np.linalg.norm(M, axis=0)
        return M / np.where(norms > 0, norms, 1.0)
    return np.abs(unit(A).T @ unit(B))


def _spawn_rngs(seed, n: int) -> list:
    """``n`` generators spawned from an int, ``None``, a ``SeedSequence``
    or a ``Generator`` seed.  A ``SeedSequence`` is spawned from a copy,
    since spawning advances it, so a repeated call with one repeats."""
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned)
    return np.random.default_rng(seed).spawn(n)
