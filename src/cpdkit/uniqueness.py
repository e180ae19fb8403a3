"""Essential-uniqueness diagnostics for CP decompositions.

The central quantity is the Kruskal rank of a factor matrix (the largest r
such that every r columns are linearly independent).  Exact computation is
combinatorial, so it is only offered for small column counts; everything
else works with krank estimates, for which the mode ranks of the data
tensor are the usual stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .linalg import (_as_array, _as_count, _as_counts, _as_real,
                     _congruence, left_singular_pairs)
from .tensor import ModeSplit, matricize

KRUSKAL_RANK_MAX_COLS = 12
RANK_RTOL = 1e-8          # relative singular-value cutoff of every rank test


def collinearity(u, v) -> float:
    """Absolute cosine between two vectors, in [0, 1]."""
    u = _as_array(u, "u").reshape(-1, 1)
    v = _as_array(v, "v").reshape(-1, 1)
    if len(u) != len(v):
        raise ValueError(f"u has {len(u)} entries but v has {len(v)}")
    if not (_as_real(np.linalg.norm(u), "the norm of u")
            and _as_real(np.linalg.norm(v), "the norm of v")):
        raise ValueError("collinearity is undefined for zero vectors")
    return float(_congruence(u, v)[0, 0])


def _rank(s) -> int:
    """Count of singular values ``s`` (descending) above ``RANK_RTOL``
    times the largest; all-zero ``s`` counts 0."""
    return int(np.sum(s > RANK_RTOL * s[0]))


def kruskal_rank(M) -> int:
    """Exact Kruskal rank by checking every column subset.

    Subset independence is decided by an SVD cut at ``RANK_RTOL``.
    Cost grows as 2^J, so matrices with more than 12 columns are rejected;
    use :func:`mode_rank` (or min(rank, J)) as an estimate instead.
    """
    M = _as_array(M, "M")
    if M.ndim != 2:
        raise ValueError("kruskal_rank expects a matrix")
    J = M.shape[1]
    if J > KRUSKAL_RANK_MAX_COLS:
        raise ValueError(
            f"exact kruskal_rank is limited to {KRUSKAL_RANK_MAX_COLS} columns "
            f"(got {J}); use mode_rank-based estimates for larger factors")
    if not np.isfinite(M).all():
        raise ValueError("M has NaN or Inf entries")
    for r in range(1, min(J, M.shape[0]) + 1):
        for cols in combinations(range(J), r):
            if _rank(np.linalg.svd(M[:, cols], compute_uv=False)) < r:
                return r - 1
    return min(J, M.shape[0])


def krank_product_bound(kranks, J: int) -> int:
    """Guaranteed Kruskal rank of a columnwise Kronecker product.

    For factors with Kruskal ranks ``k_1..k_P`` (each >= 1) and J columns,
    the product's Kruskal rank is at least ``min(J, sum(k_p) - (P - 1))``.
    A single factor returns its own (J-capped) krank.  The bound is
    monotone: extending the factor list never lowers it.
    """
    kranks = _as_counts(kranks, "kranks", 1)
    return _group_bound(sum(kranks), len(kranks), _as_count(J, "rank", 1))


def _group_bound(krank_sum: int, P: int, J: int) -> int:
    """The bound of :func:`krank_product_bound` from checked integers."""
    return min(J, krank_sum - (P - 1))


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of a Kruskal-sum uniqueness test.

    ``lhs`` is the sum of (possibly grouped) kranks, ``rhs`` the threshold
    ``2 J + (number of modes - 1)``; ``margin = lhs - rhs`` and the condition
    is satisfied when the margin is nonnegative.  ``group_bounds`` is filled
    only for grouped (unfolded) checks.
    """

    kranks: tuple[int, ...]
    rank: int
    lhs: int
    rhs: int
    margin: int
    satisfied: bool
    group_bounds: tuple[int, ...] | None = None


def ksb_check(kranks, J: int) -> UniquenessReport:
    """Kruskal-sum sufficient condition for essential uniqueness.

    Passes when ``sum(kranks) >= 2 J + (N - 1)`` over the N modes.
    """
    kranks = _as_counts(kranks, "kranks", 0, min_len=2)
    J = _as_count(J, "rank", 1)
    lhs = sum(kranks)
    rhs = 2 * J + (len(kranks) - 1)
    return UniquenessReport(kranks=kranks, rank=J, lhs=lhs, rhs=rhs,
                            margin=lhs - rhs, satisfied=lhs >= rhs)


def check_unfolded_uniqueness(kranks, J: int, split: ModeSplit) -> UniquenessReport:
    """Uniqueness condition for the mode-reduced tensor.

    Each group's krank is lower-bounded by :func:`krank_product_bound` over
    its member kranks; the grouped bounds then go through :func:`ksb_check`
    with the group count as the effective order.
    """
    kranks = _as_counts(kranks, "kranks", 1)
    if not isinstance(split, ModeSplit):
        raise ValueError(f"split must be a ModeSplit, got {split!r}")
    if len(kranks) != len(split.perm):
        raise ValueError(f"{len(kranks)} kranks for a split of {len(split.perm)} modes")
    bounds = tuple(krank_product_bound([kranks[m] for m in group], J)
                   for group in split.group_modes())
    base = ksb_check(bounds, J)
    return UniquenessReport(kranks=tuple(kranks), rank=J, lhs=base.lhs,
                            rhs=base.rhs, margin=base.margin,
                            satisfied=base.satisfied, group_bounds=bounds)


def mode_rank(T, n: int, cap: int | None = None) -> int:
    """Numerical rank of the mode-``n`` matricization, at most ``cap``.

    Singular values up to ``RANK_RTOL`` times the largest count as zero.
    The count agrees with a full SVD's; well-conditioned modes get it from
    the Gram matrix (see :func:`~cpdkit.linalg.left_singular_pairs`).  A
    ``cap`` asks only for the ``cap`` leading singular values, so the
    result is ``min(rank, cap)`` at less cost.  The tensor is read in place
    as a ``(P, I_n, Q)`` stack (:func:`_mode_stack`), unless mode ``n`` is
    larger than all the others together.
    """
    T = _as_array(T, "T")
    n = _as_count(n, "mode", 0, T.ndim - 1)
    cap = None if cap is None else _as_count(cap, "cap", 1)
    if T.size == 0:
        return 0
    # Only the singular values matter, so factor the wide orientation.
    tall = T.shape[n] ** 2 > T.size
    W = matricize(T, n).T if tall else _mode_stack(T, n)
    r = None if cap is None else min(cap, W.shape[-2])
    _, s = left_singular_pairs(W, RANK_RTOL, r, "T")
    return _rank(s)


def _mode_stack(T, n: int) -> np.ndarray:
    """``T`` as a C-contiguous ``(P, I_n, Q)`` stack whose fibres
    ``[p, :, q]`` are the columns of ``matricize(T, n)``, in another order.

    A view of a C-contiguous tensor; an F-contiguous one is read as ``T.T``,
    the C-contiguous tensor of its reversed modes, at mode ``N - 1 - n``.
    Any other layout is copied once.
    """
    if not T.flags.c_contiguous:
        if T.flags.f_contiguous:
            T, n = T.T, T.ndim - 1 - n
        else:
            T = np.ascontiguousarray(T)
    return T.reshape(prod(T.shape[:n]), T.shape[n], -1)
