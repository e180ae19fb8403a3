"""Weighted sum-of-rank-one (Kruskal) tensors and recovery metrics.

A :class:`KTensor` holds one factor matrix per mode, all with J columns, plus
a weight vector of length J; the represented tensor is
``sum_j weights[j] * outer(A_1[:, j], ..., A_N[:, j])``.  Column scale and
order are only determined up to the usual permutation/scaling ambiguity,
which is why every comparison here goes through explicit matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
from scipy.optimize import linear_sum_assignment

from .linalg import _as_array, _congruence, khatri_rao
from .tensor import _read_container, _write_container

KTNS_MAGIC = b"KTNS"

MSIR_CAP_DB = 300.0


class KTensor:
    """Immutable-by-convention container for weights + factor matrices."""

    __slots__ = ("weights", "factors")

    def __init__(self, factors, weights=None):
        self._own([np.array(_as_array(A, "factors")) for A in factors],
                  None if weights is None
                  else _as_array(weights, "weights").flatten())

    @classmethod
    def _adopt(cls, factors, weights) -> "KTensor":
        """A KTensor that holds the given float64 arrays themselves, for
        arrays nothing else refers to (no copy is made)."""
        kt = cls.__new__(cls)
        kt._own(list(factors), weights)
        return kt

    def _own(self, factors, weights):
        """Check and hold ``factors`` and ``weights`` (``None``: ones)."""
        if not factors:
            raise ValueError("KTensor needs at least one factor matrix")
        if any(A.ndim != 2 for A in factors):
            raise ValueError("factors must be matrices")
        J = factors[0].shape[1]
        if any(A.shape[1] != J for A in factors):
            raise ValueError("factors must share one column count")
        if J < 1:
            raise ValueError("rank must be at least 1")
        if weights is None:
            weights = np.ones(J)
        if weights.size != J:
            raise ValueError(f"{weights.size} weights for rank {J}")
        self.factors = factors
        self.weights = weights

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(A.shape[0] for A in self.factors)

    def copy(self) -> "KTensor":
        return KTensor(self.factors, self.weights)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"KTensor(shape={self.shape}, rank={self.rank})"


def reconstruct(kt: KTensor) -> np.ndarray:
    """Dense tensor represented by a KTensor, as one matrix product.

    The modes are cut at the ``h`` that minimizes
    ``prod(shape[:h]) + prod(shape[h:])``, and the result is
    ``(khatri_rao(A_{h-1}, ..., A_0) * w) @ khatri_rao(A_{N-1}, ..., A_h).T``
    reshaped in C order: each half lists its factors last mode first, so its
    rows run over that half's modes in C order, the reshape is free and the
    returned array is C-contiguous.  No Khatri-Rao product larger than the
    bigger half is formed.  An order-1 KTensor cuts at ``h = 1`` and its
    empty right half is a single row of ones.
    """
    if not isinstance(kt, KTensor):
        raise ValueError(f"kt must be a KTensor, got {kt!r}")
    shape, J = kt.shape, kt.rank
    h = min(range(1, kt.order + 1),
            key=lambda k: prod(shape[:k]) + prod(shape[k:]))
    left = khatri_rao(kt.factors[h - 1::-1]) * kt.weights
    right = (khatri_rao(kt.factors[:h - 1:-1]) if h < kt.order
             else np.ones((1, J)))
    return (left @ right.T).reshape(shape)


def normalize(kt: KTensor, all_modes: bool = False) -> KTensor:
    """Push factor column norms into the weights.

    Columns of every mode except the last become unit norm (the last mode
    too when ``all_modes`` is set); weights pick up the removed scale.  A
    zero column cannot be normalized: its weight becomes 0 and the component
    is dead.  The represented tensor is unchanged.
    """
    if not isinstance(kt, KTensor):
        raise ValueError(f"kt must be a KTensor, got {kt!r}")
    factors = [A.copy() for A in kt.factors]
    weights = kt.weights.copy()
    upto = kt.order if all_modes else kt.order - 1
    for n in range(upto):
        norms = np.linalg.norm(factors[n], axis=0)
        weights *= norms
        nz = norms > 0
        factors[n][:, nz] /= norms[nz]
    return KTensor(factors, weights)


def fit(ref, est) -> float:
    """Relative-error fit score ``1 - ||ref - est||_F / ||ref||_F``.

    1 means exact; the score can go negative when the estimate is worse than
    predicting zero.  ``ref`` must be nonzero.
    """
    ref, est = _as_array(ref, "ref"), _as_array(est, "est")
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {est.shape}")
    nref = np.linalg.norm(ref)
    if nref == 0:
        raise ValueError("fit is undefined for a zero reference")
    return 1.0 - float(np.linalg.norm(ref - est)) / float(nref)


@dataclass(frozen=True)
class MatchResult:
    """Optimal column matching between a reference factor and an estimate.

    ``perm[j]`` is the estimate column assigned to reference column ``j``;
    ``scales[j]`` is the least-squares scalar such that
    ``scales[j] * est[:, perm[j]] ~ ref[:, j]``; ``sir_db[j]`` is the
    signal-to-interference ratio of the pair after z-scoring and sign
    alignment (NaN when either column is constant).
    """

    perm: tuple[int, ...]
    scales: np.ndarray
    sir_db: np.ndarray


def _sir_db(ref, est) -> np.ndarray:
    """SIR in dB of every column pair ``ref[:, j]``, ``est[:, j]`` after
    z-scoring and sign alignment, capped at ``MSIR_CAP_DB``; NaN where
    either column is constant (all entries equal)."""
    def zscore(M):
        sd = M.std(axis=0)
        return (M - M.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    zr, ze = zscore(ref), zscore(est)
    ze *= np.where(np.einsum("ij,ij->j", zr, ze) < 0, -1.0, 1.0)
    num, den = np.square(zr).sum(axis=0), np.square(zr - ze).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sir = np.where(den <= num * 10.0 ** (-MSIR_CAP_DB / 10.0), MSIR_CAP_DB,
                       np.minimum(MSIR_CAP_DB, 10.0 * np.log10(num / den)))
    constant = (np.ptp(ref, axis=0) == 0) | (np.ptp(est, axis=0) == 0)
    return np.where(constant, np.nan, sir)


def match_factors(ref, est) -> MatchResult:
    """Bijectively match estimate columns to reference columns.

    The assignment maximizes the total column congruence (absolute cosine,
    :func:`~cpdkit.linalg._congruence`); reference columns are never
    reused.  Works on raw columns, so it is insensitive to the per-column
    scale/sign ambiguity of CP factors.
    """
    ref, est = _as_array(ref, "ref"), _as_array(est, "est")
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {est.shape}")
    # The rows of a square assignment come back as 0..J-1, in order.
    _, perm = linear_sum_assignment(-_congruence(ref, est))
    E = est[:, perm]
    den = np.einsum("ij,ij->j", E, E)
    scales = np.einsum("ij,ij->j", ref, E) / np.where(den > 0, den, 1.0)
    return MatchResult(tuple(perm.tolist()), scales, _sir_db(ref, E))


def msir(ref, est) -> float:
    """Mean signal-to-interference ratio (dB) over optimally matched columns.

    Columns are z-scored (zero mean, unit variance) before comparison, so
    the metric sees only the shape of each component; per-pair values are
    capped at 300 dB.  Raises if any matched column is constant.
    """
    res = match_factors(ref, est)
    if np.isnan(res.sir_db).any():
        raise ValueError("msir is undefined for constant columns")
    return float(res.sir_db.mean())


def write_ktns(path, kt: KTensor) -> None:
    """Write a KTensor to the ``.ktns`` binary format.

    Layout mirrors the tensor format: magic ``KTNS``, version byte 1, uint32
    order N, uint32 rank J, N uint64 mode sizes, J float64 weights, then each
    factor as float64 entries in column-major order.  Little-endian.
    """
    if not isinstance(kt, KTensor):
        raise ValueError(f"kt must be a KTensor, got {kt!r}")
    _write_container(path, KTNS_MAGIC, (kt.order, kt.rank), kt.shape,
                     (kt.weights, *kt.factors))


def read_ktns(path) -> KTensor:
    """Read a KTensor written by :func:`write_ktns`.

    NaN or Inf weights or factor entries are rejected, naming the file.
    """
    (_, J), shape, values = _read_container(
        path, KTNS_MAGIC, 2, "bad header (order={0}, rank={1})",
        lambda counts, shape: counts[1] * (1 + sum(shape)),
        "weights and factor entries")
    # min and max carry any NaN or Inf without a payload-sized mask.
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(f"{path}: weights or factors have NaN or Inf entries")
    weights, factors, at = values[:J], [], J
    for size in shape:
        factors.append(values[at:at + size * J].reshape((size, J), order="F"))
        at += size * J
    # The slices view the one payload array the reader allocated.
    return KTensor._adopt(factors, weights)
