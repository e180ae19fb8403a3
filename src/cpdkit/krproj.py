"""Columnwise Khatri-Rao projection.

A merged factor matrix has columns that should be Kronecker products of
per-mode columns.  Projecting back means fitting, for every column, the
nearest rank-1 tensor after reshaping the column into the group's mode
sizes (canonical order).  Two fitters are available: independent dominant
singular vectors per mode unfolding, and alternating power iterations that
can clamp negative entries to zero after every update.  Nonnegativity picks
the fitter: without it the closed-form SVD fit, with it the power one.
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import _column_signs, khatri_rao
from .tensor import matricize, mode_contract, tensor_from_vec

POWER_MAX_ITERS = 200
POWER_TOL = 1e-10


def _rank1_assemble(T, units):
    """Least-squares amplitude for a fixed set of unit directions."""
    last = T.ndim - 1
    w = mode_contract(T, units[:-1], skip=last)
    return float(w @ units[last])


def rank1_parallel_extract(T):
    """Best rank-1 directions taken independently per mode.

    Returns ``(units, amplitude)`` where ``units`` are the dominant left
    singular vectors of each mode unfolding and ``amplitude`` is the
    least-squares scale of their outer product.  Exact for rank-1 inputs.
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2:
        raise ValueError("rank-1 extraction needs an order >= 2 tensor")
    units = []
    for k in range(T.ndim):
        M = matricize(T, k)
        if not M.any():
            return [np.zeros(s) for s in T.shape], 0.0
        units.append(np.linalg.svd(M, full_matrices=False)[0][:, 0].copy())
    return units, _rank1_assemble(T, units)


def _rank1_dense(vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def rank1_power_iteration(T, nonneg: bool = False):
    """Alternating rank-1 updates, optionally nonnegative.

    Each step replaces one mode's vector by the contraction of ``T`` with
    all the others, divided by their squared norms (the exact one-mode
    least-squares solution), and under ``nonneg`` clamps its negative
    entries to zero.  Without ``nonneg`` the residual is nonincreasing.
    Stops when the residual change drops below ``POWER_TOL`` relative to
    ``||T||_F`` or after ``POWER_MAX_ITERS`` sweeps (then it warns and
    returns the last iterate).

    Returns ``(units, amplitude)`` like :func:`rank1_parallel_extract`;
    under ``nonneg`` the amplitude is clamped to be nonnegative so the
    scaled last vector stays nonnegative too.
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2:
        raise ValueError("rank-1 iteration needs an order >= 2 tensor")
    normT = float(np.linalg.norm(T))
    if normT == 0:
        return [np.zeros(s) for s in T.shape], 0.0
    # Singular-vector start; oriented positively so the nonneg clamp keeps
    # mass instead of zeroing the whole vector.
    units, amp = rank1_parallel_extract(T)
    scale = (abs(amp) if amp != 0 else normT) ** (1.0 / T.ndim)
    vecs = []
    for u in units:
        if u.sum() < 0:
            u = -u
        vecs.append(np.maximum(u * scale, 0.0) if nonneg else u * scale)
    prev = None
    converged = False
    for _ in range(POWER_MAX_ITERS):
        for k in range(T.ndim):
            others = [vecs[p] for p in range(T.ndim) if p != k]
            denom = np.prod([v @ v for v in others])
            if denom == 0:
                warnings.warn("rank-1 iteration collapsed to zero", RuntimeWarning)
                return [np.zeros(s) for s in T.shape], 0.0
            w = mode_contract(T, others, skip=k) / denom
            vecs[k] = np.maximum(w, 0.0) if nonneg else w
        resid = float(np.linalg.norm(T - _rank1_dense(vecs)))
        if prev is not None and abs(prev - resid) <= POWER_TOL * normT:
            converged = True
            break
        prev = resid
    if not converged:
        warnings.warn("rank-1 iteration hit the sweep cap; returning the "
                      "last iterate", RuntimeWarning)
    norms = [float(np.linalg.norm(v)) for v in vecs]
    if 0.0 in norms:
        return [np.zeros(s) for s in T.shape], 0.0
    units = [v / n for v, n in zip(vecs, norms)]
    amp = _rank1_assemble(T, units)
    if nonneg and amp < 0:
        amp = 0.0
    return units, amp


def kr_project(H, sizes, nonneg: bool = False):
    """Project merged-factor columns onto exact Kronecker structure.

    Parameters
    ----------
    H : ndarray, shape (prod(sizes), J)
        Merged factor; column j is treated as the canonical vectorization of
        an order-P tensor with mode sizes ``sizes``.  NaN or Inf entries
        are rejected.
    sizes : sequence of int, length P >= 2
        Row sizes of the per-mode factors to recover.
    nonneg : bool
        Keep every factor entry nonnegative.  It picks the fitter: per-mode
        singular vectors without it, alternating nonnegative power
        iterations with it.

    Returns
    -------
    factors : list of ndarray
        P matrices, factor p of shape ``(sizes[p], J)``.  Columns of all but
        the last factor are unit norm (first non-negligible entry
        nonnegative); the last factor carries each column's amplitude.
    eps : float
        Frobenius residual ``||H - khatri_rao(factors)||_F``.
    """
    H = np.asarray(H, dtype=np.float64)
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise ValueError("need at least two mode sizes to split a column")
    if min(sizes) < 1:
        raise ValueError(f"mode sizes must be >= 1, got {sizes}")
    if H.ndim != 2 or H.shape[0] != int(np.prod(sizes)):
        raise ValueError(f"H has {H.shape} but mode sizes {sizes} imply "
                         f"{int(np.prod(sizes))} rows")
    if not np.isfinite(H).all():
        raise ValueError("H has NaN or Inf entries")
    J = H.shape[1]
    P = len(sizes)
    factors = [np.zeros((s, J)) for s in sizes]
    for j in range(J):
        col = H[:, j]
        if not col.any():
            warnings.warn(f"column {j} is identically zero; its factors are "
                          "zeroed", RuntimeWarning)
            continue
        block = tensor_from_vec(col, sizes)
        if nonneg:
            units, amp = rank1_power_iteration(block, nonneg=True)
        else:
            units, amp = rank1_parallel_extract(block)
        for k in range(P - 1):
            factors[k][:, j] = units[k]
        factors[P - 1][:, j] = amp * units[P - 1]
    # Orient unit columns; each sign goes into the amplitude-bearing last
    # factor, so the column product is unchanged.
    for k in range(P - 1):
        signs = _column_signs(factors[k])
        factors[k] *= signs
        factors[P - 1] *= signs
    eps = float(np.linalg.norm(H - khatri_rao(factors)))
    return factors, eps
