"""The merged-factor splitting step: batched rank-1 fits of every column."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdkit.krproj import kr_project
from cpdkit.linalg import khatri_rao
from cpdkit.tensor import matricize
from cpdkit.uniqueness import collinearity


def outer(vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def svd_reference(H, sizes):
    """Column by column: dominant left singular vector of every mode
    unfolding, least-squares amplitude on the last mode, and the sign of
    each unit column's first non-negligible entry moved into the last."""
    factors = [np.zeros((s, H.shape[1])) for s in sizes]
    for j in range(H.shape[1]):
        T = H[:, j].reshape(sizes, order="F")
        units = [np.linalg.svd(matricize(T, k))[0][:, 0]
                 for k in range(len(sizes))]
        units[-1] = units[-1] * np.vdot(outer(units), T)
        for k, u in enumerate(units[:-1]):
            lead = u[np.argmax(np.abs(u) > 1e-12 * np.abs(u).max())]
            if lead < 0:
                units[k], units[-1] = -u, -units[-1]
        for F, u in zip(factors, units):
            F[:, j] = u
    return factors


# sizes and column counts of the ported single-column kernel checks:
# P = 2 and P = 3, one column and several
CASES = [(sizes, J) for sizes in [(4, 5), (4, 5, 3)] for J in (1, 3)]


def test_parallel_extract_exact_rank1():
    rng = np.random.default_rng(51)
    for sizes, J in CASES:
        mats = [rng.standard_normal((s, J)) for s in sizes]
        mats = [M / np.linalg.norm(M, axis=0) for M in mats]
        H = 2.5 * khatri_rao(mats)
        factors, eps = kr_project(H, sizes)
        assert eps < 1e-10
        assert np.allclose(khatri_rao(factors), H, atol=1e-10)
        assert np.allclose(np.linalg.norm(factors[-1], axis=0), 2.5,
                           rtol=1e-10)
        for F in factors[:-1]:
            assert np.allclose(np.linalg.norm(F, axis=0), 1.0, atol=1e-12)


def test_parallel_extract_zero_tensor():
    for sizes, J in CASES:
        with pytest.warns(RuntimeWarning, match="identically zero"):
            factors, eps = kr_project(np.zeros((np.prod(sizes), J)), sizes)
        assert eps == 0.0
        assert all(not F.any() for F in factors)


def test_power_iteration_exact_rank1():
    rng = np.random.default_rng(52)
    for sizes, J in CASES:
        mats = [rng.uniform(0.0, 1.0, (s, J)) for s in sizes]
        H = khatri_rao(mats)
        factors, eps = kr_project(H, sizes, nonneg=True)
        assert eps < 1e-10
        assert np.allclose(khatri_rao(factors), H, atol=1e-10)


def test_power_iteration_nonneg_constraint():
    # mixed-sign columns: the clamp keeps every entry nonnegative; at P = 2,
    # where the singular-vector split is optimal, it can only lose fit
    rng = np.random.default_rng(54)
    for sizes, J in CASES:
        mats = [rng.uniform(0.1, 1.0, (s, J)) for s in sizes]
        H = khatri_rao(mats) + 0.2 * rng.standard_normal((np.prod(sizes), J))
        factors, eps = kr_project(H, sizes, nonneg=True)
        assert all(np.all(F >= 0) for F in factors)
        if len(sizes) == 2:
            assert eps >= kr_project(H, sizes)[1] - 1e-12
        assert eps == pytest.approx(np.linalg.norm(H - khatri_rao(factors)),
                                    rel=1e-12)


def test_power_iteration_zero_tensor():
    for sizes, J in CASES:
        with pytest.warns(RuntimeWarning, match="identically zero"):
            factors, eps = kr_project(np.zeros((np.prod(sizes), J)), sizes,
                                      nonneg=True)
        assert eps == 0.0
        assert all(not F.any() for F in factors)


def test_kr_project_nonneg_collapse_warns_once():
    # a negative column has no nonnegative rank-1 fit: its factors are
    # zeroed and one warning names it
    H = np.array([[1.0, -1.0, 2.0], [2.0, -2.0, 1.0], [3.0, -3.0, 2.0],
                  [4.0, -4.0, 1.0]])
    with pytest.warns(RuntimeWarning) as record:
        factors, eps = kr_project(H, (2, 2), nonneg=True)
    assert [str(w.message) for w in record] == [
        "rank-1 iteration collapsed to zero on columns [1]"]
    assert all(not F[:, 1].any() and F[:, [0, 2]].all() for F in factors)
    assert eps == pytest.approx(np.linalg.norm(H - khatri_rao(factors)),
                                rel=1e-12)


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
    # the implied row count is exact, not wrapped around in int64
    with pytest.raises(ValueError, match="imply 221360928884514619392 rows"):
        kr_project(H, (2 ** 32, 2 ** 32, 12))
    with pytest.raises(ValueError, match="H has 0 columns"):
        kr_project(np.zeros((12, 0)), (3, 4))


@pytest.mark.filterwarnings("ignore:rank-1 iteration collapsed")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), nonneg=st.booleans())
def test_kr_project_fits_each_column_alone_property(data, nonneg):
    # every column is fitted as if it were projected on its own, and the
    # unconstrained fit is the per-column singular-vector split
    P = data.draw(st.integers(2, 3))
    sizes = data.draw(st.lists(st.integers(1, 5), min_size=P, max_size=P))
    J = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 30)))
    H = khatri_rao([rng.uniform(0.0, 1.0, (s, J)) for s in sizes])
    H += rng.uniform(0.0, 0.3, J) * rng.standard_normal(H.shape)
    factors, eps = kr_project(H, sizes, nonneg=nonneg)
    tol = 1e-12 * np.linalg.norm(H)
    for j in range(J):
        alone, _ = kr_project(H[:, [j]], sizes, nonneg=nonneg)
        for F, G in zip(factors, alone):
            assert np.linalg.norm(F[:, j] - G[:, 0]) <= tol
    if not nonneg:
        for F, G in zip(factors, svd_reference(H, sizes)):
            assert np.linalg.norm(F - G) <= tol
        assert eps == pytest.approx(
            np.linalg.norm(H - khatri_rao(svd_reference(H, sizes))),
            rel=1e-12)


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
