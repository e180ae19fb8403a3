"""Rank-1 extraction kernels and the merged-factor splitting step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdkit.krproj import (
    kr_project,
    rank1_parallel_extract,
    rank1_power_iteration,
)
from cpdkit.linalg import khatri_rao
from cpdkit.tensor import tensor_from_vec
from cpdkit.uniqueness import collinearity


def outer(vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def test_parallel_extract_exact_rank1():
    rng = np.random.default_rng(51)
    vecs = [rng.standard_normal(s) for s in (4, 5, 3)]
    T = 2.5 * outer([v / np.linalg.norm(v) for v in vecs])
    units, amp = rank1_parallel_extract(T)
    assert np.allclose(amp * outer(units), T, atol=1e-10)
    assert abs(amp) == pytest.approx(2.5, rel=1e-10)
    for u in units:
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_parallel_extract_zero_tensor():
    units, amp = rank1_parallel_extract(np.zeros((3, 4)))
    assert amp == 0.0
    assert all(not u.any() for u in units)
    with pytest.raises(ValueError):
        rank1_parallel_extract(np.zeros(3))


def test_power_iteration_exact_rank1():
    rng = np.random.default_rng(52)
    vecs = [rng.standard_normal(s) for s in (5, 4, 3)]
    T = outer(vecs)
    units, amp = rank1_power_iteration(T)
    assert np.allclose(amp * outer(units), T, atol=1e-10)


def test_power_iteration_beats_parallel_on_rank2():
    # parallel extraction is only a heuristic once rank exceeds 1; the
    # alternating update must do at least as well
    rng = np.random.default_rng(53)
    T = outer([rng.standard_normal(4) for _ in range(3)])
    T += 0.8 * outer([rng.standard_normal(s) for s in (4, 4, 4)])
    u_par, a_par = rank1_parallel_extract(T)
    u_pow, a_pow = rank1_power_iteration(T)
    r_par = np.linalg.norm(T - a_par * outer(u_par))
    r_pow = np.linalg.norm(T - a_pow * outer(u_pow))
    assert r_pow <= r_par + 1e-12


def test_power_iteration_nonneg_constraint():
    rng = np.random.default_rng(54)
    vecs = [rng.uniform(0.1, 1.0, s) for s in (4, 5)]
    T = outer(vecs)
    units, amp = rank1_power_iteration(T, nonneg=True)
    assert amp >= 0
    for u in units:
        assert np.all(u >= 0)
    assert np.allclose(amp * outer(units), T, atol=1e-8)


def test_power_iteration_zero_tensor():
    units, amp = rank1_power_iteration(np.zeros((3, 3)))
    assert amp == 0.0


def test_kr_project_known_column():
    # [3, 6, 4, 8] folds (first mode fastest) to [[3, 4], [6, 8]], an exact
    # outer product of [3, 6] and [1, 4/3]
    H = np.array([[3.0], [6.0], [4.0], [8.0]])
    factors, eps = kr_project(H, (2, 2))
    assert eps < 1e-12
    assert np.allclose(khatri_rao(factors), H, atol=1e-12)
    a = factors[0][:, 0]
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert a[0] >= 0
    assert np.allclose(a, np.array([3.0, 6.0]) / np.sqrt(45.0), atol=1e-12)


def test_kr_project_exact_inputs():
    rng = np.random.default_rng(55)
    for nonneg in (False, True):
        mats = [rng.standard_normal((s, 4)) for s in (5, 3, 4)]
        if nonneg:
            mats = [np.abs(M) for M in mats]
        H = khatri_rao(mats)
        factors, eps = kr_project(H, (5, 3, 4), nonneg=nonneg)
        assert eps < 1e-10
        assert np.allclose(khatri_rao(factors), H, atol=1e-9)
        for got, want in zip(factors, mats):
            for j in range(4):
                assert collinearity(got[:, j], want[:, j]) > 1 - 1e-10


def test_kr_project_column_convention():
    # all factors except the last carry unit columns; the last has the scale
    rng = np.random.default_rng(56)
    mats = [rng.standard_normal((s, 3)) for s in (4, 5)]
    factors, _ = kr_project(khatri_rao(mats), (4, 5))
    assert np.allclose(np.linalg.norm(factors[0], axis=0), 1.0, atol=1e-12)
    scale = np.linalg.norm(mats[0], axis=0) * np.linalg.norm(mats[1], axis=0)
    assert np.allclose(np.linalg.norm(factors[1], axis=0), scale, atol=1e-9)


def test_kr_project_residual_never_exceeds_perturbation():
    # per-column best rank-1 cannot be worse than the noiseless truth (P=2,
    # where the SVD split is exactly optimal)
    rng = np.random.default_rng(57)
    mats = [rng.standard_normal((s, 5)) for s in (6, 7)]
    E = 0.01 * rng.standard_normal((42, 5))
    H = khatri_rao(mats) + E
    factors, eps = kr_project(H, (6, 7))
    assert eps <= np.linalg.norm(E) + 1e-12
    assert eps == pytest.approx(np.linalg.norm(H - khatri_rao(factors)),
                                rel=1e-12)


def test_kr_project_zero_column_warns():
    rng = np.random.default_rng(58)
    H = khatri_rao([rng.standard_normal((3, 2)), rng.standard_normal((4, 2))])
    H[:, 1] = 0.0
    with pytest.warns(RuntimeWarning, match="identically zero"):
        factors, eps = kr_project(H, (3, 4))
    assert not factors[0][:, 1].any()
    assert eps < 1e-12


def test_kr_project_validation():
    H = np.zeros((12, 2))
    with pytest.raises(ValueError):
        kr_project(H, (12,))
    with pytest.raises(ValueError):
        kr_project(H, (3, 5))
    with pytest.raises(ValueError):
        kr_project(np.zeros(12), (3, 4))


def test_kr_project_constraint_picks_fitter():
    rng = np.random.default_rng(59)
    H = khatri_rao([rng.uniform(0.1, 1.0, (4, 3)),
                    rng.uniform(0.1, 1.0, (5, 3))])
    H += 0.01 * rng.standard_normal(H.shape)
    got, _ = kr_project(H, (4, 5), nonneg=True)
    for j in range(3):
        units, amp = rank1_power_iteration(tensor_from_vec(H[:, j], (4, 5)),
                                           nonneg=True)
        assert np.array_equal(got[0][:, j], units[0])
        assert np.array_equal(got[1][:, j], amp * units[1])
    assert all(np.all(F >= 0) for F in got)


def exact_kr_input(data, low):
    P = data.draw(st.integers(2, 3))
    sizes = data.draw(st.lists(st.integers(2, 6), min_size=P, max_size=P))
    J = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 30)))
    mats = [rng.uniform(low, 1.0, (s, J)) for s in sizes]
    return khatri_rao(mats), sizes


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kr_project_exact_on_khatri_rao_property(data):
    H, sizes = exact_kr_input(data, -1.0)
    _, eps = kr_project(H, sizes)
    assert eps <= 1e-10 * np.linalg.norm(H)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kr_project_nonneg_exact_property(data):
    H, sizes = exact_kr_input(data, 0.0)
    factors, eps = kr_project(H, sizes, nonneg=True)
    assert eps <= 1e-10 * np.linalg.norm(H)
    assert all(np.all(F >= 0) for F in factors)
