"""Synthetic problem generators and noise injection for the benchmarks."""

from __future__ import annotations

import numpy as np

from .ktensor import KTensor
from .linalg import _congruence, _spawn_rngs

BOTTLENECK_MIN_RHO = 0.9
SINE_FREQ_HZ = 2.0


def gen_random_ktensor(shape, J: int, seed=None) -> KTensor:
    """Ground-truth KTensor with i.i.d. standard normal factor entries.

    Weights are all ones; factors are left unnormalized so entries keep unit
    variance.  Deterministic per seed.
    """
    if J < 1:
        raise ValueError("rank must be positive")
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2 or any(s < 1 for s in shape):
        raise ValueError(f"bad shape {shape}")
    rng = np.random.default_rng(seed)
    return KTensor([rng.standard_normal((s, J)) for s in shape])


def _collinear_factor(rng, I, J):
    """Columns built as a random walk: each is the previous plus a half-scale
    fresh normal vector, so neighbors are strongly correlated."""
    V = rng.standard_normal((I, J))
    A = np.empty((I, J))
    A[:, 0] = V[:, 0]
    for j in range(1, J):
        A[:, j] = A[:, j - 1] + 0.5 * V[:, j]
    return A


def _max_neighbor_rho(A):
    return np.diagonal(_congruence(A, A), 1).max()


def gen_bottleneck_ktensor(I: int, J: int = 5, seed=None) -> KTensor:
    """Order-5 ground truth with two kinds of nearly collinear factors.

    Modes 0 and 1 use the random-walk construction (neighboring columns
    correlated); modes 2 and 3 are sine waves at 2 Hz over a unit time span
    sampled at ``I`` points, phase-shifted by ``j*pi/50`` and
    ``(j+5)*pi/50``; mode 4 is plain standard normal.  The generator asserts
    a neighboring collinearity above 0.9 in each random-walk mode; to stay
    deterministic per seed without rare failures it redraws those two modes
    from spawned substreams (up to 16 attempts) before giving up.  ``seed``
    may be an int, ``None``, a ``SeedSequence`` (left unchanged, so a
    repeated call repeats) or a ``Generator``.
    """
    if J < 2:
        raise ValueError("the bottleneck construction needs rank >= 2")
    if I < 3:
        raise ValueError("mode size too small to be meaningful")
    rng_rest, *attempt_rngs = _spawn_rngs(seed, 17)

    t = np.linspace(0.0, 1.0, I)
    ranks = np.arange(1, J + 1)
    A3 = np.sin(2.0 * np.pi * SINE_FREQ_HZ * t[:, None] + ranks * np.pi / 50.0)
    A4 = np.sin(2.0 * np.pi * SINE_FREQ_HZ * t[:, None] + (ranks + 5) * np.pi / 50.0)
    A5 = rng_rest.standard_normal((I, J))

    for rng in attempt_rngs:
        A1 = _collinear_factor(rng, I, J)
        A2 = _collinear_factor(rng, I, J)
        if (_max_neighbor_rho(A1) > BOTTLENECK_MIN_RHO
                and _max_neighbor_rho(A2) > BOTTLENECK_MIN_RHO):
            return KTensor([A1, A2, A3, A4, A5])
    raise RuntimeError("failed to draw sufficiently collinear factors; "
                       "increase the mode size")


def add_noise(T, snr_db, seed=None) -> np.ndarray:
    """Additive white Gaussian noise at an exact signal-to-noise ratio.

    The noise tensor is rescaled so ``20*log10(||T|| / ||E||)`` equals
    ``snr_db`` exactly.  ``snr_db=None`` returns an untouched copy.
    """
    T = np.asarray(T, dtype=np.float64)
    if snr_db is None:
        return T.copy()
    norm_t = float(np.linalg.norm(T))
    if norm_t == 0:
        raise ValueError("cannot set an SNR against a zero tensor")
    rng = np.random.default_rng(seed)
    E = rng.standard_normal(T.shape)
    E *= norm_t / (float(np.linalg.norm(E)) * 10.0 ** (snr_db / 20.0))
    return T + E
