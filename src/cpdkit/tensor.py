"""Dense tensor layout, matricization, and mode-reduction primitives.

Tensors are plain ``numpy.ndarray`` objects of dtype float64.  The canonical
linear order of entries is mode-1-fastest: entry ``(i_1, ..., i_N)`` sits at
linear index ``i_1 + I_1*(i_2 + I_2*(i_3 + ...))``, which is exactly numpy's
Fortran (column-major) order.  Every reshape in this module goes through
``order="F"`` so that the canonical vectorization is preserved verbatim; the
``.tnsr`` file format stores entries in the same order, little-endian.

No function here mutates its inputs.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from math import prod

import numpy as np

from .linalg import _as_array, _as_count, _as_counts

TNSR_MAGIC = b"TNSR"
FORMAT_VERSION = 1    # of both binary containers, ``.tnsr`` and ``.ktns``


@dataclass(frozen=True)
class ModeSplit:
    """A partition of tensor modes into consecutive groups after a permutation.

    ``perm`` lists original mode indices (0-based) in their new order; the
    permuted modes are then cut into groups at ``boundaries``, which must
    start at 0, end at the number of modes, and be strictly increasing.
    Group ``k`` covers permuted positions ``boundaries[k]:boundaries[k+1]``.

    Example: for a 5th-order tensor, ``ModeSplit((0, 1, 2, 3, 4), (0, 1, 3, 5))``
    keeps mode 0 alone and merges modes (1, 2) and (3, 4).
    """

    perm: tuple[int, ...]
    boundaries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", _as_counts(self.perm, "perm", 0))
        object.__setattr__(self, "boundaries",
                           _as_counts(self.boundaries, "boundaries", 0))
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{n - 1}")
        b = self.boundaries
        if len(b) < 3 or b[0] != 0 or b[-1] != n or list(b) != sorted(set(b)):
            raise ValueError(f"boundaries {b} must be strictly increasing "
                             f"from 0 to {n} with at least two groups")

    @property
    def num_groups(self) -> int:
        return len(self.boundaries) - 1

    def group_modes(self) -> list[tuple[int, ...]]:
        """Original mode indices of each group, in permuted order."""
        b = self.boundaries
        return [self.perm[b[k]:b[k + 1]] for k in range(self.num_groups)]

    def group_sizes(self, shape) -> tuple[int, ...]:
        """Grouped mode sizes for a tensor of the given shape."""
        return tuple(prod(shape[p] for p in g) for g in self.group_modes())


def matricize(T, n: int) -> np.ndarray:
    """Mode-``n`` matricization, of shape ``(T.shape[n], prod(others))``.

    Row ``i`` holds every entry with ``i_n == i``; columns run over the
    remaining indices with the lowest-numbered remaining mode varying fastest,
    consistent with the canonical vectorization.
    """
    T = _as_array(T, "T", 1)
    n = _as_count(n, "mode", 0, T.ndim - 1)
    return np.reshape(np.moveaxis(T, n, 0), (T.shape[n], -1), order="F")


def tensorize(M, shape, n: int) -> np.ndarray:
    """Inverse of :func:`matricize`: fold a mode-``n`` matricization back
    into the full target ``shape`` (mode ``n`` included)."""
    M = _as_array(M, "M")
    shape = _as_counts(shape, "shape", 0)
    n = _as_count(n, "mode", 0, len(shape) - 1)
    rest = tuple(s for k, s in enumerate(shape) if k != n)
    if M.shape != (shape[n], prod(rest)):
        raise ValueError(f"matrix shape {M.shape} does not match mode-{n} "
                         f"matricization of {shape}")
    return np.moveaxis(M.reshape((shape[n],) + rest, order="F"), 0, n)


def reduce_modes(T, split: ModeSplit) -> np.ndarray:
    """Lower the tensor order by merging groups of modes.

    Permutes modes by ``split.perm`` and then reinterprets each index group as
    a single merged index.  Entries are untouched: the canonical vectorization
    of the result equals that of the permuted tensor, so a split with
    singleton groups is exactly ``np.transpose(T, split.perm)``.
    """
    T = _as_array(T, "T", 1)
    if not isinstance(split, ModeSplit):
        raise ValueError(f"split must be a ModeSplit, got {split!r}")
    if len(split.perm) != T.ndim:
        raise ValueError(f"split covers {len(split.perm)} modes, tensor has {T.ndim}")
    permuted = np.transpose(T, split.perm)
    return permuted.reshape(split.group_sizes(T.shape), order="F")


def _write_container(path, magic: bytes, counts, shape, payload) -> None:
    """Write ``magic``, version byte 1, uint32 ``counts``, uint64 ``shape``,
    then each ``payload`` array as little-endian float64 in column-major
    order: the container of ``.tnsr`` and ``.ktns``.  An F-contiguous array
    is written from its own buffer, any other from one F-ordered copy."""
    with open(path, "wb") as f:
        f.write(magic + struct.pack(f"<B{len(counts)}I{len(shape)}Q",
                                    FORMAT_VERSION, *counts, *shape))
        for A in payload:
            f.write(np.ravel(A, order="F").astype("<f8", copy=False))


def _read_container(path, magic: bytes, n_counts: int, bad_counts: str,
                    payload_size, label: str):
    """Read what :func:`_write_container` wrote: ``(counts, shape, values)``.

    Counts below 1 raise ``bad_counts.format(*counts)``.  The first count
    is the number of mode sizes; ``payload_size(counts, shape)`` entries,
    named ``label``, follow them.  Every claimed size is checked against the
    file length before anything is allocated, so a forged size is never
    handed to ``read``, and the payload is read into one new array.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def claim(nbytes, what, left):
            if nbytes > left:
                raise ValueError(f"{path}: truncated payload, expected {what} "
                                 f"({nbytes} bytes), {left} bytes left")
            return nbytes

        found = f.read(len(magic))
        if found != magic:
            raise ValueError(f"{path}: bad magic {found!r}, expected {magic!r}")
        version, *counts = struct.unpack(f"<B{n_counts}I", f.read(
            claim(1 + 4 * n_counts, "header", size - f.tell())))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if min(counts) < 1:
            raise ValueError(f"{path}: " + bad_counts.format(*counts))
        shape = struct.unpack(f"<{counts[0]}Q", f.read(claim(
            8 * counts[0], f"{counts[0]} mode sizes", size - f.tell())))
        count = payload_size(counts, shape)
        what = f"{count} {label}"
        values = np.empty(claim(8 * count, what, size - f.tell()) // 8, "<f8")
        claim(values.nbytes, what, f.readinto(values))    # short read
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after payload")
    return counts, shape, values


def write_tnsr(path, T) -> None:
    """Write a tensor to the ``.tnsr`` binary format.

    Layout: magic ``TNSR``, version byte 1, uint32 order N, N uint64 mode
    sizes, then float64 entries in canonical order.  All fields little-endian.
    """
    T = _as_array(T, "T", 1)
    _write_container(path, TNSR_MAGIC, (T.ndim,), T.shape, (T,))


def read_tnsr(path) -> np.ndarray:
    """Read a tensor written by :func:`write_tnsr` (F-contiguous, writeable)."""
    _, shape, values = _read_container(
        path, TNSR_MAGIC, 1, "order must be positive, got {0}",
        lambda counts, shape: prod(shape), "values")
    return values.reshape(shape, order="F")
