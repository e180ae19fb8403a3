"""Matrix kernel tests with brute-force oracles built from np.kron and the
full SVD."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpdkit import linalg
from cpdkit.linalg import (
    _column_signs,
    _congruence,
    _spawn_rngs,
    hadamard,
    khatri_rao,
    left_singular_pairs,
    pinv_cutoff,
)


def khatri_rao_oracle(mats):
    """Column j is the Kronecker stack of the j-th columns, first listed
    matrix varying fastest down the rows."""
    J = mats[0].shape[1]
    cols = []
    for j in range(J):
        col = mats[0][:, j]
        for M in mats[1:]:
            col = np.kron(M[:, j], col)
        cols.append(col)
    return np.column_stack(cols)


def test_khatri_rao_known_pair():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    want = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 4.0]])
    assert np.array_equal(khatri_rao([A, B]), want)


def test_khatri_rao_matches_oracle():
    rng = np.random.default_rng(12)
    mats = [rng.standard_normal((s, 4)) for s in (3, 2, 5)]
    assert np.allclose(khatri_rao(mats), khatri_rao_oracle(mats), atol=1e-14)


def test_khatri_rao_single_matrix_is_identity_op():
    A = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(khatri_rao([A]), A)


def test_khatri_rao_validation():
    with pytest.raises(ValueError):
        khatri_rao([])
    with pytest.raises(ValueError):
        khatri_rao([np.zeros((2, 2)), np.zeros((2, 3))])
    with pytest.raises(ValueError):
        khatri_rao([np.zeros(4)])


def test_hadamard():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[2.0, 0.5], [1.0, 2.0]])
    assert np.array_equal(hadamard([A, B]), A * B)
    assert np.array_equal(hadamard([A]), A)
    with pytest.raises(ValueError):
        hadamard([])
    with pytest.raises(ValueError):
        hadamard([A, np.zeros((3, 2))])


def matrix_with_spectrum(seed, shape, s):
    """``U diag(s) W^T`` with Haar-random orthonormal ``U`` and ``W``."""
    rng = np.random.default_rng(seed)
    k = len(s)
    U, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    W, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    return (U * s) @ W.T


@st.composite
def low_rank_plus_tail(draw, rtol):
    """A matrix whose spectrum is a kept block at or above 0.05 times the
    largest value plus a tail straddling ``rtol`` times it (some of it
    exactly zero).  Returns ``(M, oracle_count)``; examples with a full-SVD
    value within 5% of the cutoff, where rounding may decide, are
    excluded."""
    m = draw(st.integers(2, 8))
    n = draw(st.integers(m, 60))
    kept = draw(st.integers(1, m))
    head = [1.0] + draw(st.lists(st.floats(0.05, 1.0), min_size=kept - 1,
                                 max_size=kept - 1))
    tail = draw(st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 2.0).map(
        lambda e: rtol * 10.0 ** e)), min_size=m - kept, max_size=m - kept))
    s = np.sort(np.array(head + tail))[::-1]
    M = matrix_with_spectrum(draw(st.integers(0, 2 ** 32 - 1)), (m, n), s)
    s_full = np.linalg.svd(M, compute_uv=False)
    cut = rtol * s_full[0]
    assume(not np.any((s_full > cut / 1.05) & (s_full < cut * 1.05)))
    return M, int(np.sum(s_full > cut))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=low_rank_plus_tail(1e-8), data=st.data())
def test_left_singular_pairs_verdicts_match_full_svd(case, data):
    M, want = case
    m = M.shape[0]
    r = data.draw(st.one_of(st.just(m), st.integers(1, m)))
    U, s = left_singular_pairs(M, 1e-8, r)
    assert U.shape == (M.shape[0], r) and s.shape == (r,)
    assert np.all(np.diff(s) <= 0)
    assert np.sum(s > 1e-8 * s[0]) == min(want, r)


def tsqr_calls(monkeypatch):
    """Count calls of the exact (streamed QR) route."""
    calls = []
    real = linalg._tsqr_r

    def spy(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(linalg, "_tsqr_r", spy)
    return calls


def same_subspace(U, V, atol):
    return np.allclose(U @ U.T, V @ V.T, atol=atol)


def test_left_singular_pairs_fast_route_on_full_rank(monkeypatch):
    calls = tsqr_calls(monkeypatch)
    M = np.random.default_rng(15).standard_normal((6, 40))
    U, s = left_singular_pairs(M, 1e-8)
    U_full, s_full, _ = np.linalg.svd(M, full_matrices=False)
    assert calls == []
    assert np.allclose(s, s_full, rtol=1e-12)
    assert np.allclose(U.T @ U, np.eye(6), atol=1e-12)
    assert same_subspace(U[:, :3], U_full[:, :3], 1e-10)


def test_left_singular_pairs_deflation_certifies_rank_deficient(monkeypatch):
    # the Gram route cannot place the zero singular values, but deflating
    # the two kept directions bounds them below the cutoff: no TSQR
    calls = tsqr_calls(monkeypatch)
    rng = np.random.default_rng(16)
    M = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 50))
    U, s = left_singular_pairs(M, 1e-8)
    U_full, s_full, _ = np.linalg.svd(M, full_matrices=False)
    assert calls == []
    assert U.shape == (6, 6) and s.shape == (6,)
    assert np.sum(s > 1e-8 * s[0]) == np.sum(s_full > 1e-8 * s_full[0]) == 2
    assert np.all(s[2:] <= 1e-8 * s[0])
    assert np.allclose(s[:2], s_full[:2], rtol=1e-12)
    assert same_subspace(U[:, :2], U_full[:, :2], 1e-10)


def test_left_singular_pairs_near_cutoff_takes_exact_route(monkeypatch):
    # sigma_3 just above rtol * sigma_1: the deflated residual cannot
    # certify a drop, so the streamed QR decides, and keeps it
    calls = tsqr_calls(monkeypatch)
    M = matrix_with_spectrum(20, (6, 50), [1.0, 0.5, 1.05e-8, 0.0, 0.0, 0.0])
    _, s = left_singular_pairs(M, 1e-8)
    s_full = np.linalg.svd(M, compute_uv=False)
    assert calls == [(6, 50)]
    assert np.sum(s > 1e-8 * s[0]) == np.sum(s_full > 1e-8 * s_full[0]) == 3
    assert np.allclose(s, s_full, atol=1e-14)


@pytest.mark.parametrize("shape", [(1, 4, 30), (9, 4, 1), (5, 3, 6),
                                   (3, 4, 40)])
@pytest.mark.parametrize("spectrum", [
    [1.0, 0.7, 0.4, 0.2],               # Gram route
    [1.0, 0.5, 0.0, 0.0],               # deflation certifies the drop
    [1.0, 0.5, 1.05e-8, 0.0],           # streamed QR decides
])
def test_left_singular_pairs_reads_a_stack(monkeypatch, shape, spectrum):
    # a (P, m, Q) stack gives the pairs of the matrix of its fibres, over
    # blocks small enough to take every branch of the block walk
    monkeypatch.setattr(linalg, "TSQR_BLOCK_ENTRIES", 64)
    P, m, Q = shape
    M = matrix_with_spectrum(21, (m, P * Q), spectrum[:m])
    X = np.ascontiguousarray(M.reshape(m, P, Q).transpose(1, 0, 2))
    U, s = left_singular_pairs(X, 1e-8)
    U_full, s_full, _ = np.linalg.svd(M, full_matrices=False)
    kept = int(np.sum(s_full > 1e-8 * s_full[0]))
    assert np.sum(s > 1e-8 * s[0]) == kept
    assert np.allclose(s[:kept], s_full[:kept], rtol=1e-12)
    assert np.all(s[kept:] <= max(1e-8 * s[0], s_full[kept:].max(initial=0)))
    k = int(np.sum(s_full > 0.1))
    assert same_subspace(U[:, :k], U_full[:, :k], 1e-10)


def test_left_singular_pairs_truncates():
    M = np.random.default_rng(17).standard_normal((5, 30))
    U, s = left_singular_pairs(M, 1e-8, r=3)
    U_full, s_full, _ = np.linalg.svd(M, full_matrices=False)
    assert U.shape == (5, 3)
    assert np.allclose(s, s_full[:3], rtol=1e-12)
    assert same_subspace(U, U_full[:, :3], 1e-10)


def test_tsqr_r_streams_blocks(monkeypatch):
    # blocks smaller than the matrix: the streamed R must still agree
    monkeypatch.setattr(linalg, "TSQR_BLOCK_ENTRIES", 64)
    rng = np.random.default_rng(18)
    M = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 101))
    R = linalg._tsqr_r(M)
    assert R.shape == (4, 4)
    assert np.allclose(R.T @ R, M @ M.T, atol=1e-12 * np.abs(M).max() ** 2)


def test_left_singular_pairs_gram_overflow_takes_exact_route(monkeypatch):
    calls = tsqr_calls(monkeypatch)
    M = 1e200 * np.random.default_rng(19).standard_normal((3, 8))
    _, s = left_singular_pairs(M, 1e-8)
    assert calls == [(3, 8)]
    assert np.allclose(s / 1e200,
                       np.linalg.svd(M / 1e200, compute_uv=False), rtol=1e-12)


def test_left_singular_pairs_validation():
    with pytest.raises(ValueError, match="matrix"):
        left_singular_pairs(np.zeros(4), 1e-8)
    with pytest.raises(ValueError, match="wide"):
        left_singular_pairs(np.ones((5, 4)), 1e-8)
    with pytest.raises(ValueError, match="out of range"):
        left_singular_pairs(np.ones((3, 4)), 1e-8, r=4)
    with pytest.raises(ValueError, match="out of range"):
        left_singular_pairs(np.ones((3, 4)), 1e-8, r=0)
    bad = np.ones((3, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        left_singular_pairs(bad, 1e-8)
    bad[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        left_singular_pairs(bad, 1e-8)
    _, s = left_singular_pairs(np.zeros((2, 3)), 1e-8)
    assert np.array_equal(s, [0.0, 0.0])


def test_column_signs():
    U = np.array([[0.0, 1e-20, -1.0, 0.0],
                  [-2.0, 1.0, 0.0, 0.0],
                  [3.0, -1.0, 0.0, 0.0]])
    # entries at or below 1e-12 of the column's peak do not lead
    assert np.array_equal(_column_signs(U), [-1.0, 1.0, -1.0, 1.0])
    lead = U * _column_signs(U)
    assert np.array_equal(_column_signs(lead), np.ones(4))


def test_pinv_cutoff_formula():
    A = np.zeros((10, 4))
    assert pinv_cutoff(A) == 10 * np.finfo(np.float64).eps


def test_congruence_values():
    A = np.array([[1.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0]])
    B = np.array([[-3.0, 1.0],
                  [0.0, 1.0]])
    C = _congruence(A, B)
    assert C.shape == (3, 2)
    assert C[0, 0] == 1.0 and C[2, 0] == 0.0
    assert C[0, 1] == pytest.approx(1 / np.sqrt(2))
    # a zero column scores 0 against everything, itself included
    assert np.array_equal(C[1], [0.0, 0.0])
    assert np.array_equal(_congruence(A, A)[1], np.zeros(3))


def test_spawn_rngs_seed_rule():
    def draw(rngs):
        return [g.random() for g in rngs]

    want = [np.random.default_rng(c).random()
            for c in np.random.SeedSequence(5).spawn(3)]
    assert draw(_spawn_rngs(5, 3)) == want
    # a SeedSequence is not advanced, so it repeats
    ss = np.random.SeedSequence(5)
    assert draw(_spawn_rngs(ss, 3)) == want == draw(_spawn_rngs(ss, 3))
    assert ss.n_children_spawned == 0
    # a fresh Generator spawns the children of its own seed sequence
    assert draw(_spawn_rngs(np.random.default_rng(5), 3)) == want
