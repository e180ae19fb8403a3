"""Columnwise Khatri-Rao projection.

A merged factor matrix has columns that should be Kronecker products of
per-mode columns.  Projecting back means fitting, for every column, the
nearest rank-1 tensor after reshaping the column into the group's mode
sizes (canonical order).  All columns are fitted at once as one stack of
column tensors: the dominant left singular vectors of every mode unfolding
give the directions, and under nonnegativity alternating power updates that
clamp negative entries to zero refine them.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .linalg import _as_array, _as_counts, _column_signs, khatri_rao

POWER_MAX_ITERS = 200
POWER_TOL = 1e-10


def _contract(X, vectors, skip=None):
    """Contract each column tensor ``X[j]`` with ``vectors[m][j]`` on every
    mode ``m`` except ``skip``; ``vectors[m]`` has shape ``(J, I_m)``."""
    P = X.ndim - 1
    operands = [X, [P, *range(P)]]
    for m, v in enumerate(vectors):
        if m != skip:
            operands += [v, [P, m]]
    return np.einsum(*operands, [P] if skip is None else [P, skip])


def _nonneg_power(H, X, units, amp, norms):
    """Alternating nonnegative rank-1 updates of every column tensor
    ``X[j]``, column ``j`` of ``H`` folded.

    Starts from the singular directions ``units`` scaled by ``|amp|`` (or
    the column norm) and oriented to a nonnegative sum, so the clamp keeps
    mass instead of zeroing a whole vector.  Each step replaces
    one mode's vector by the contraction of ``X[j]`` with all the others,
    divided by their squared norms (the exact one-mode least-squares
    solution), and clamps its negative entries to zero.  Column ``j`` stops
    once its residual changes by at most ``POWER_TOL * norms[j]`` between
    sweeps, or after ``POWER_MAX_ITERS`` sweeps (then it warns and keeps
    the last iterate).  A column collapses when an update meets a zero
    vector among the others: it warns, and its vectors are zeroed.
    """
    J, P = X.shape[0], X.ndim - 1
    scale = np.where(amp != 0, np.abs(amp), norms) ** (1.0 / P)
    vecs = []
    for u in units:
        u = np.where(u.sum(axis=1, keepdims=True) < 0, -u, u)
        vecs.append(np.maximum(u * scale[:, None], 0.0))
    active = norms > 0
    collapsed = np.zeros(J, dtype=bool)
    prev = np.full(J, np.nan)
    for _ in range(POWER_MAX_ITERS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Xa = X[idx]
        va = [v[idx] for v in vecs]
        dead = np.zeros(idx.size, dtype=bool)
        for k in range(P):
            denom = np.prod([np.einsum("ja,ja->j", v, v)
                             for m, v in enumerate(va) if m != k], axis=0)
            dead |= denom == 0
            denom[dead] = 1.0
            w = np.maximum(_contract(Xa, va, skip=k) / denom[:, None], 0.0)
            w[dead] = 0.0
            va[k] = w
        resid = np.linalg.norm(H[:, idx] - khatri_rao([v.T for v in va]),
                               axis=0)
        done = np.abs(prev[idx] - resid) <= POWER_TOL * norms[idx]
        for v, v_new in zip(vecs, va):
            v[idx] = v_new
        prev[idx] = resid
        collapsed[idx[dead]] = True
        active[idx[dead | done]] = False
    if collapsed.any():
        warnings.warn(f"rank-1 iteration collapsed to zero on columns "
                      f"{np.flatnonzero(collapsed).tolist()}", RuntimeWarning)
    if active.any():
        warnings.warn(f"rank-1 iteration hit the sweep cap on columns "
                      f"{np.flatnonzero(active).tolist()}; returning the "
                      "last iterate", RuntimeWarning)
    return vecs


def kr_project(H, sizes, nonneg: bool = False):
    """Project merged-factor columns onto exact Kronecker structure.

    Column j of the finite ``prod(sizes) x J`` merged factor ``H`` is read
    as the canonical vectorization of an order-P tensor (P >= 2) with mode
    sizes ``sizes``.  ``nonneg`` keeps every factor entry nonnegative: the
    singular-vector fit is refined by alternating nonnegative power updates.

    Returns ``(factors, eps)``: P factors, factor p of shape
    ``(sizes[p], J)``, with unit columns outside the last factor (first
    non-negligible entry nonnegative) and each column's amplitude in the
    last; and the Frobenius residual ``||H - khatri_rao(factors)||_F``.
    """
    H = _as_array(H, "H")
    sizes = list(_as_counts(sizes, "mode sizes", 1, min_len=2))
    rows = math.prod(sizes)
    if H.ndim != 2 or H.shape[0] != rows:
        raise ValueError(f"H has {H.shape} but mode sizes {sizes} imply "
                         f"{rows} rows")
    if H.shape[1] < 1:
        raise ValueError("H has 0 columns; it needs at least 1")
    if not np.isfinite(H).all():
        raise ValueError("H has NaN or Inf entries")
    J, P = H.shape[1], len(sizes)
    # X[j] is column j folded into its order-P tensor (canonical order).
    X = H.T.reshape((J, *sizes), order="F")
    norms = np.linalg.norm(H, axis=0)
    zero = norms == 0
    for j in np.flatnonzero(zero):
        warnings.warn(f"column {j} is identically zero; its factors are "
                      "zeroed", RuntimeWarning)
    units = [np.linalg.svd(np.moveaxis(X, k + 1, 1).reshape(J, s, -1),
                           full_matrices=False)[0][:, :, 0]
             for k, s in enumerate(sizes)]
    amp = _contract(X, units)
    if nonneg:
        vecs = _nonneg_power(H, X, units, amp, norms)
        lengths = [np.linalg.norm(v, axis=1) for v in vecs]
        zero |= np.min(lengths, axis=0) == 0
        units = [v / np.where(n == 0, 1.0, n)[:, None]
                 for v, n in zip(vecs, lengths)]
        amp = np.maximum(_contract(X, units), 0.0)
    factors = [u.T.copy() for u in units]
    factors[-1] *= amp
    for F in factors:
        F[:, zero] = 0.0
    # Orient unit columns; each sign goes into the amplitude-bearing last
    # factor, so the column product is unchanged.
    for k in range(P - 1):
        signs = _column_signs(factors[k])
        factors[k] *= signs
        factors[P - 1] *= signs
    eps = float(np.linalg.norm(H - khatri_rao(factors)))
    return factors, eps
