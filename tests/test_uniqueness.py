"""Kruskal-rank machinery, checked against a test-local subset enumeration."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpdkit import uniqueness
from cpdkit.ktensor import KTensor, reconstruct
from cpdkit.linalg import khatri_rao
from cpdkit.synth import gen_random_ktensor
from cpdkit.tensor import ModeSplit, matricize, tensorize
from cpdkit.uniqueness import (
    KRUSKAL_RANK_MAX_COLS,
    RANK_RTOL,
    check_unfolded_uniqueness,
    collinearity,
    krank_product_bound,
    kruskal_rank,
    ksb_check,
    mode_rank,
)


def kruskal_rank_oracle(M):
    """Largest r such that every r-column subset has full rank."""
    I, J = M.shape
    best = 0
    for r in range(1, min(I, J) + 1):
        if all(np.linalg.matrix_rank(M[:, c]) == r
               for c in combinations(range(J), r)):
            best = r
        else:
            break
    return best


def test_collinearity_values():
    assert collinearity([1.0, 0.0], [2.0, 0.0]) == 1.0
    assert collinearity([1.0, 0.0], [-3.0, 0.0]) == 1.0
    assert collinearity([1.0, 0.0], [0.0, 5.0]) == 0.0
    assert collinearity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        collinearity([0.0, 0.0], [1.0, 0.0])


def test_collinearity_names_both_lengths():
    with pytest.raises(ValueError, match="^u has 3 entries but v has 4$"):
        collinearity(np.ones(3), np.ones(4))


def test_kruskal_rank_constructions():
    rng = np.random.default_rng(61)
    assert kruskal_rank(np.eye(4)) == 4

    A = rng.standard_normal((6, 4))
    assert kruskal_rank(A) == 4                    # generic: min(I, J)
    assert kruskal_rank(rng.standard_normal((3, 5))) == 3

    dup = A.copy()
    dup[:, 2] = dup[:, 0]
    assert kruskal_rank(dup) == 1                  # one dependent pair

    zero = A.copy()
    zero[:, 1] = 0.0
    assert kruskal_rank(zero) == 0

    dep = A.copy()
    dep[:, 3] = dep[:, 0] + dep[:, 1]              # dependent triple only
    assert kruskal_rank(dep) == 2


def test_kruskal_rank_matches_oracle():
    rng = np.random.default_rng(62)
    for trial in range(20):
        I = int(rng.integers(3, 9))
        J = int(rng.integers(2, 7))
        M = rng.standard_normal((I, J))
        if trial % 3 == 1 and J >= 2:
            M[:, 1] = 2.0 * M[:, 0]
        if trial % 5 == 2:
            M = M.round(0)                         # lots of exact collisions
            M[0, 0] += 0.5                         # keep it nonzero
        assert kruskal_rank(M) == kruskal_rank_oracle(M)


def test_kruskal_rank_column_cap():
    with pytest.raises(ValueError, match="columns"):
        kruskal_rank(np.ones((2, KRUSKAL_RANK_MAX_COLS + 1)))
    with pytest.raises(ValueError):
        kruskal_rank(np.ones(3))


def test_krank_product_bound_values():
    assert krank_product_bound([9, 8], 18) == 16
    assert krank_product_bound([7, 6], 18) == 12
    assert krank_product_bound([10], 18) == 10
    assert krank_product_bound([10], 4) == 4       # capped at J
    assert krank_product_bound([20, 20], 48) == 39
    # a krank-1 factor adds nothing but never hurts
    assert krank_product_bound([5, 1], 9) == 5
    with pytest.raises(ValueError):
        krank_product_bound([], 3)
    with pytest.raises(ValueError):
        krank_product_bound([0, 2], 3)
    with pytest.raises(ValueError):
        krank_product_bound([2, 2], 0)


def test_krank_product_bound_is_sound():
    # the guaranteed lower bound must hold for actual Khatri-Rao products
    rng = np.random.default_rng(63)
    for _ in range(10):
        J = int(rng.integers(2, 5))
        A = rng.standard_normal((int(rng.integers(2, 5)), J))
        B = rng.standard_normal((int(rng.integers(2, 5)), J))
        bound = krank_product_bound(
            [kruskal_rank(A), kruskal_rank(B)], J)
        assert kruskal_rank(khatri_rao([A, B])) >= bound


def test_ksb_check_worked_example():
    rep = ksb_check((10, 9, 8, 7, 6), 18)
    assert (rep.lhs, rep.rhs, rep.margin) == (40, 40, 0)
    assert rep.satisfied
    assert rep.rank == 18


def test_ksb_check_failing_case():
    rep = ksb_check((2, 2, 2), 3)
    assert rep.margin == -2
    assert not rep.satisfied


def test_ksb_check_validation():
    with pytest.raises(ValueError):
        ksb_check((4,), 2)
    with pytest.raises(ValueError):
        ksb_check((4, -1), 2)
    with pytest.raises(ValueError):
        ksb_check((4, 4), 0)


def test_unfolded_uniqueness_worked_example():
    split = ModeSplit((0, 1, 2, 3, 4), (0, 1, 3, 5))
    rep = check_unfolded_uniqueness((10, 9, 8, 7, 6), 18, split)
    assert rep.group_bounds == (10, 16, 12)
    assert (rep.lhs, rep.rhs, rep.margin) == (38, 38, 0)
    assert rep.satisfied


def test_unfolded_uniqueness_grouping_can_lose_what_nway_has():
    # a krank-1 mode left alone drags its group bound to 1; the full check
    # passes but this particular grouping does not
    split = ModeSplit((0, 3, 1, 2), (0, 1, 2, 4))
    rep = check_unfolded_uniqueness((2, 2, 2, 1), 2, split)
    assert rep.group_bounds == (2, 1, 2)
    assert not rep.satisfied
    assert ksb_check((2, 2, 2, 1), 2).satisfied


def test_unfolded_uniqueness_validation():
    split = ModeSplit((0, 1, 2, 3), (0, 1, 2, 4))
    with pytest.raises(ValueError, match="kranks"):
        check_unfolded_uniqueness((2, 2, 2), 3, split)


def test_mode_rank():
    T = reconstruct(gen_random_ktensor((5, 6, 4, 3), 2, seed=64))
    for n in range(4):
        assert mode_rank(T, n) == 2
    assert mode_rank(np.zeros((3, 4)), 0) == 0


def full_svd_rank(M, tol=1e-8):
    s = np.linalg.svd(M, compute_uv=False)
    return 0 if s[0] == 0 else int(np.sum(s > tol * s[0]))


def perturbed_low_rank(shape, rank, seed, rel):
    """Exact rank-``rank`` CP tensor plus Gaussian noise of relative
    Frobenius size ``rel`` (none when ``rel`` is 0)."""
    T = reconstruct(gen_random_ktensor(shape, rank, seed=seed))
    if rel:
        E = np.random.default_rng(seed + 1).standard_normal(shape)
        T = T + rel * np.linalg.norm(T) / np.linalg.norm(E) * E
    return T


@settings(max_examples=60)
@given(shape=st.tuples(st.integers(2, 14), st.integers(2, 5),
                       st.integers(2, 5)),
       rank=st.integers(1, 6),
       seed=st.integers(0, 2 ** 30),
       rel=st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5]))
def test_mode_rank_matches_full_svd(shape, rank, seed, rel):
    # mode 0 ranges from tall (14 x 4) to wide (2 x 25) matricizations
    T = perturbed_low_rank(shape, rank, seed, rel)
    for n in range(3):
        assert mode_rank(T, n) == full_svd_rank(matricize(T, n))


@settings(max_examples=40)
@given(shape=st.tuples(st.integers(2, 14), st.integers(2, 5),
                       st.integers(2, 5)),
       rank=st.integers(1, 6),
       cap=st.integers(1, 16),
       seed=st.integers(0, 2 ** 30),
       rel=st.sampled_from([0.0, 1e-12, 1e-8, 1e-5]))
def test_mode_rank_cap(shape, rank, cap, seed, rel):
    # a cap asks for fewer singular values, never for a different count
    T = perturbed_low_rank(shape, rank, seed, rel)
    for n in range(3):
        assert mode_rank(T, n, cap=cap) == min(mode_rank(T, n), cap)


@settings(max_examples=60)
@given(shape=st.tuples(st.integers(2, 12), st.integers(2, 5),
                       st.integers(2, 5)),
       n=st.integers(0, 2), data=st.data(), seed=st.integers(0, 2 ** 30))
def test_mode_rank_straddling_cutoff(shape, n, data, seed):
    # a mode-n spectrum of kept values plus a tail from 1e-10 to 100 times
    # RANK_RTOL (or exactly zero); values within 5% of the cutoff, where
    # rounding may decide, are excluded
    rng = np.random.default_rng(seed)
    rows, cols = shape[n], int(np.prod(shape)) // shape[n]
    k = min(rows, cols)
    kept = data.draw(st.integers(1, k))
    tail = data.draw(st.lists(st.sampled_from(
        [0.0, 1e-10, 1e-6, 0.3, 0.9, 1.2, 3.0, 100.0]), min_size=k - kept,
        max_size=k - kept))
    s = np.sort(np.r_[1.0, rng.uniform(0.05, 1.0, kept - 1),
                      RANK_RTOL * np.array(tail)])[::-1]
    U, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    W, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    T = tensorize((U * s) @ W.T, shape, n)
    s_full = np.linalg.svd(matricize(T, n), compute_uv=False)
    cut = RANK_RTOL * s_full[0]
    assume(not np.any((s_full > cut / 1.05) & (s_full < cut * 1.05)))
    want = int(np.sum(s_full > cut))
    cap = data.draw(st.integers(1, k + 2))
    assert mode_rank(T, n) == want
    assert mode_rank(T, n, cap=cap) == min(want, cap)


def test_mode_rank_tall_and_wide():
    T = perturbed_low_rank((30, 3, 4), 2, 65, 0.0)
    assert matricize(T, 0).shape == (30, 12)       # tall
    assert [mode_rank(T, n) for n in range(3)] == [2, 2, 2]
    noisy = perturbed_low_rank((30, 3, 4), 2, 66, 1e-5)
    assert [mode_rank(noisy, n) for n in range(3)] == [12, 3, 4]


def test_mode_rank_rejects_non_finite():
    T = np.ones((3, 4, 2))
    T[0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        mode_rank(T, 1)


@pytest.mark.parametrize("order", ["C", "F"])
def test_mode_rank_reads_tensor_in_place(monkeypatch, order):
    # a wide mode of a C- or F-contiguous tensor is read as a stack view,
    # never matricized; the mode ranks differ, so reading the wrong mode
    # shows
    rng = np.random.default_rng(67)
    factors = [rng.standard_normal((s, 3)) for s in (6, 5, 4, 3)]
    factors[0][:, 1:] = factors[0][:, :1]                 # rank 1
    factors[1][:, 2] = factors[1][:, 0] + factors[1][:, 1]  # rank 2
    T = np.asarray(reconstruct(KTensor(factors)), order=order)
    want = [full_svd_rank(matricize(T, n)) for n in range(4)]
    assert want == [1, 2, 3, 3]
    monkeypatch.setattr(uniqueness, "matricize", None)
    assert [mode_rank(T, n) for n in range(4)] == want
    assert [mode_rank(T, n, cap=2) for n in range(4)] == [1, 2, 2, 2]
    strided = np.zeros((12, 5, 4, 3))
    strided[::2] = T
    assert [mode_rank(strided[::2], n) for n in range(4)] == want
