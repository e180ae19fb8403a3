"""Mode-reduction pipeline: split planning, compression, merged-factor
recovery, the certified error bound, and the end-to-end decomposition."""

import copy
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cpdkit import als, mrcpd, uniqueness
from cpdkit.als import SolverOptions, cp_als
from cpdkit.ktensor import (KTensor, fit, match_factors, normalize,
                            reconstruct)
from cpdkit.linalg import (_column_signs, khatri_rao, left_singular_pairs,
                           pinv_cutoff)
from cpdkit.mrcpd import (
    Compression,
    MrcpdOptions,
    compress_mode,
    mrcpd_decompose,
    plan_unfolding,
    recover_merged_factor,
    verify_error_bound,
)
from cpdkit.synth import gen_bottleneck_ktensor, gen_random_ktensor
from cpdkit.tensor import ModeSplit, matricize, reduce_modes
from cpdkit.uniqueness import mode_rank


def solver_opts(seed, max_iters=400, tol=1e-12):
    return SolverOptions(max_iters=max_iters, tol=tol, seed=seed)


# ---------------------------------------------------------------- planning

def group_key(kranks, J, groups):
    """The planner's key: sorted group bounds, then the smaller largest
    group."""
    bounds = [min(J, sum(kranks[m] for m in g) - (len(g) - 1))
              for g in groups]
    return sorted(bounds), -max(len(g) for g in groups)


def test_plan_unfolding_worked_example():
    # the contiguous blocks of the krank order give (1,2)|(3,4)|(0,) with
    # bounds (16, 12, 10); pairing the strongest with the weakest mode
    # balances the two merged groups better
    split = plan_unfolding((10, 9, 8, 7, 6), 18)
    assert split == ModeSplit((1, 4, 2, 3, 0), (0, 2, 4, 5))
    assert split.group_modes() == [(1, 4), (2, 3), (0,)]
    assert group_key((10, 9, 8, 7, 6), 18, split.group_modes())[0] == [
        10, 14, 14]


def test_plan_unfolding_keeps_bottleneck_sine_modes_apart():
    # modes 2 and 3 are the rank-2 sine modes of gen_bottleneck_ktensor
    split = plan_unfolding((5, 5, 2, 2, 5), 5)
    assert split.group_modes() == [(0,), (1, 2), (4, 3)]


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 6).flatmap(lambda N: st.tuples(
    st.lists(st.integers(1, 6), min_size=N, max_size=N), st.integers(1, 12))))
def test_plan_unfolding_is_best_over_every_partition(problem):
    kranks, J = problem
    N = len(kranks)
    groups = plan_unfolding(kranks, J).group_modes()
    assert sorted(m for g in groups for m in g) == list(range(N))
    keys = [group_key(kranks, J, [[m for m in range(N) if labels[m] == g]
                                  for g in range(3)])
            for labels in itertools.product(range(3), repeat=N)
            if len(set(labels)) == 3]
    assert len(keys) == 3 ** N - 3 * 2 ** N + 3    # 3! S(N, 3) labelings
    assert group_key(kranks, J, groups) == max(keys)
    bounds = [group_key(kranks, J, [g])[0][0] for g in groups]
    assert bounds == sorted(bounds, reverse=True)
    # the best contiguous split of the krank order, by the contiguous-only
    # search's rule, is the answer whenever it ties the best key
    order = sorted(range(N), key=lambda n: (-kranks[n], n))
    cuts = [(b1, b2) for b1 in range(1, N - 1) for b2 in range(b1 + 1, N)]
    blocks = [[order[:b1], order[b1:b2], order[b2:]] for b1, b2 in cuts]
    best = max(blocks, key=lambda b: (group_key(kranks, J, b),
                                      [-len(g) for g in b]))
    if group_key(kranks, J, best) == max(keys):
        assert sorted(groups) == sorted(tuple(g) for g in best)


def test_plan_unfolding_equal_kranks():
    # groups come back ordered by descending bound, so the merged pairs
    # (bound 39) precede the lone mode (bound 20)
    split = plan_unfolding((20, 20, 20, 20, 20), 48)
    assert split.group_modes() == [(1, 2), (3, 4), (0,)]
    assert split.group_sizes((20,) * 5) == (400, 400, 20)

    quad = plan_unfolding((3, 3, 3, 3), 3)
    assert quad == ModeSplit((0, 1, 2, 3), (0, 1, 2, 4))


def test_plan_unfolding_prefers_balanced_bounds():
    # a weak mode gets merged with a strong one instead of standing alone
    split = plan_unfolding((8, 8, 1, 8), 8)
    bounds = [min(8, sum(8 if m != 2 else 1 for m in g) - (len(g) - 1))
              for g in split.group_modes()]
    assert min(bounds) == 8


def test_plan_unfolding_validation():
    with pytest.raises(ValueError):
        plan_unfolding((3, 3, 3), 2)
    with pytest.raises(ValueError):
        plan_unfolding((3, 0, 3, 3), 2)


# ------------------------------------------------------------- compression

def svd_basis(M, width, kept=None):
    """``compress_mode``'s basis ``(U, s)`` for the matricization ``M`` and
    its whitened rows, computed in its orientation: the short side is
    factored and its vectors ``W`` signed by the sign rule; a tall ``M``
    gives ``U = M W / s`` and the rows ``W^T``, a wide one ``U = W`` and
    ``(U / s)^T M``.  ``kept`` keeps only the leading pairs of those asked
    for."""
    wide = M.shape[0] <= M.shape[1]
    W, s = left_singular_pairs(M if wide else M.T, pinv_cutoff(M),
                               min(width, *M.shape))
    W, s = W[:, :kept] * _column_signs(W[:, :kept]), s[:kept]
    if wide:
        return W, s, (W / s).T @ M
    return (M @ W) / s, s, W.T


def test_compress_mode_svd_preserves_low_rank():
    truth = gen_random_ktensor((12, 5, 4), 3, seed=71)
    T3 = reconstruct(truth)
    C = compress_mode(T3, 0, 3)
    assert C.shape == (3, 5, 4)
    M = matricize(T3, 0)
    U, s, rows = svd_basis(M, 3)
    assert np.array_equal(matricize(C, 0), rows)
    # for exact rank-3 data the projection loses nothing:
    # U diag(s) (compressed unfolding) puts the original back
    back = U @ (matricize(C, 0) * s[:, None])
    assert np.allclose(back, M, atol=1e-9)


def test_compress_mode_svd_whitens():
    truth = gen_random_ktensor((12, 5, 4), 3, seed=72)
    C = compress_mode(reconstruct(truth), 0, 3)
    rows = matricize(C, 0)
    assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-9)


def test_compress_mode_svd_tall_mode():
    # the compressed mode is longer than its matricization is wide
    T3 = reconstruct(gen_random_ktensor((40, 3, 4), 3, seed=93))
    T3 = T3 + 1e-6 * np.random.default_rng(94).standard_normal(T3.shape)
    M = matricize(T3, 0)
    C = compress_mode(T3, 0, 3)
    U, s, rows = svd_basis(M, 3)
    assert np.array_equal(matricize(C, 0), rows)
    U_full, s_full, _ = np.linalg.svd(M, full_matrices=False)
    assert np.allclose(s, s_full[:3], rtol=1e-10)
    assert np.allclose(U @ U.T, U_full[:, :3] @ U_full[:, :3].T, atol=1e-10)
    rows = matricize(C, 0)
    assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-9)


def test_compress_mode_noop_paths():
    T3 = np.random.default_rng(73).standard_normal((3, 4, 5))
    same = compress_mode(T3, 0, 3)
    assert np.array_equal(same, T3)

    same2 = compress_mode(T3, 1, 5)
    assert np.array_equal(same2, T3)


def test_compress_mode_validation():
    T3 = np.random.default_rng(75).standard_normal((6, 4, 3))
    with pytest.raises(ValueError):
        compress_mode(T3, 5, 2)
    with pytest.raises(ValueError):
        compress_mode(T3, 0, 0)
    with pytest.raises(ValueError, match="width must be an integer"):
        compress_mode(T3, 0, 2.5)
    assert compress_mode(T3, 0, np.int64(6)) is T3
    with pytest.raises(ValueError, match="out of range"):
        compress_mode(T3, -1, 2)
    with pytest.raises(ValueError, match="all-zero"):
        compress_mode(np.zeros((6, 4, 3)), 0, 2)


@pytest.mark.parametrize("shape, rank, width, seed", [
    ((6, 4, 3), 2, 4, 76),      # wide matricization, 6 x 12
    ((40, 3, 4), 3, 5, 95),     # tall matricization, 40 x 12
    ((40, 2, 3), 4, 10, 96)])   # width above the short side, 6
def test_compress_mode_keeps_numerical_rank(shape, rank, width, seed):
    # rank-r data below the width keeps r whitened directions, which
    # put the unfolding back exactly
    T3 = reconstruct(gen_random_ktensor(shape, rank, seed=seed))
    r = min(rank, shape[1] * shape[2])
    C = compress_mode(T3, 0, width)
    assert C.shape == (r,) + shape[1:]
    M = matricize(T3, 0)
    U, s, rows = svd_basis(M, width, r)
    assert np.array_equal(matricize(C, 0), rows)
    assert np.allclose(rows @ rows.T, np.eye(r), atol=1e-9)
    back = U @ (rows * s[:, None])
    assert np.allclose(back, M, atol=1e-9 * np.abs(M).max())
    # the orthonormal projection keeps the same r directions, and expanding
    # its core puts the unfolding back
    B, core = mrcpd._project_mode(T3, 0, width)
    assert core.shape == C.shape
    assert np.allclose(B.T @ B, np.eye(r), atol=1e-12)
    assert np.allclose(B @ B.T, U @ np.linalg.pinv(U), atol=1e-9)
    assert np.allclose(B @ matricize(core, 0), M,
                       atol=1e-9 * np.abs(M).max())


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_project_mode_keeps_the_leading_subspace(mode):
    # noisy data above the width, so the projection drops directions;
    # mode 1's unfolding is tall, 40 x 12
    truth = gen_random_ktensor((6, 40, 3, 4), 3, seed=101)
    T3 = reduce_modes(reconstruct(truth), ModeSplit((0, 1, 2, 3),
                                                    (0, 1, 2, 4)))
    T3 = T3 + 1e-3 * np.random.default_rng(102).standard_normal(T3.shape)
    width = 2
    M = matricize(T3, mode)
    B, core = mrcpd._project_mode(T3, mode, width)
    assert B.shape == (M.shape[0], width)
    assert np.allclose(B.T @ B, np.eye(width), atol=1e-12)
    assert np.allclose(matricize(core, mode), B.T @ M, atol=1e-12)
    U_full = np.linalg.svd(M, full_matrices=False)[0][:, :width]
    assert np.allclose(B @ B.T, U_full @ U_full.T, atol=1e-9)


def full_svd_kept(M, width):
    """The directions compression keeps, from a full SVD: ``width``, or
    the numerical rank at the pseudo-inverse cutoff if that is smaller."""
    s = np.linalg.svd(M, compute_uv=False)
    return int(min(width, np.sum(s > pinv_cutoff(M) * s[0])))


@settings(max_examples=60)
@given(shape=st.tuples(st.integers(3, 12), st.integers(2, 5),
                       st.integers(2, 5)),
       rank=st.integers(1, 5),
       extra=st.integers(-2, 2),
       seed=st.integers(0, 2 ** 30),
       rel=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-5]))
def test_compress_mode_svd_matches_full_svd(shape, rank, extra, seed, rel):
    T3 = reconstruct(gen_random_ktensor(shape, rank, seed=seed))
    if rel:
        E = np.random.default_rng(seed + 1).standard_normal(shape)
        T3 = T3 + rel * np.linalg.norm(T3) / np.linalg.norm(E) * E
    M = matricize(T3, 0)
    width = min(max(1, rank + extra), shape[0] - 1, M.shape[1])
    C = compress_mode(T3, 0, width)
    # a width above the numerical rank keeps the rank
    kept = full_svd_kept(M, width)
    assert C.shape[0] == kept
    U, s, rows = svd_basis(M, width, kept)
    width = kept
    assert np.array_equal(matricize(C, 0), rows)
    U_full, s_full, _ = np.linalg.svd(M, full_matrices=False)
    # the Gram route moves squared singular values by at most
    # 2 (m + n) eps ||M||_F^2, which squares the conditioning of whitening
    delta = 2 * sum(M.shape) * np.finfo(float).eps * s_full @ s_full
    assert np.all(np.abs(s ** 2 - s_full[:width] ** 2)
                  <= delta + 1e-12 * s_full[0] ** 2)
    cond = s_full[0] / s_full[width - 1]
    rows = matricize(C, 0)
    assert np.allclose(rows @ rows.T, np.eye(width), atol=1e-12 * cond ** 2)
    if width == rank:
        # a gap behind the kept directions pins the subspace down
        P = U @ U.T
        assert np.allclose(P, U_full[:, :width] @ U_full[:, :width].T,
                           atol=1e-10)


# --------------------------------------------------- merged-factor recovery

def as_layout(T, layout):
    """``T`` C-ordered, F-ordered, or as a strided view of a larger array."""
    if layout == "strided":
        big = np.zeros((2 * T.shape[0],) + T.shape[1:])
        big[::2] = T
        return big[::2]
    return np.asarray(T, order=layout)


def mode_product(X, U, n):
    """``X`` times ``U`` along mode ``n``."""
    return np.moveaxis(np.tensordot(U, X, axes=(1, n)), 0, n)


def expand_core(core, bases):
    for n, U in bases.items():
        core = mode_product(core, U, n)
    return core


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncate_modes_on_exact_low_multilinear_rank(data):
    # a Tucker tensor whose multilinear ranks are at most J, some modes
    # larger than J: the pass finds every J-capped mode rank, keeps
    # orthonormal bases, and loses nothing
    N = data.draw(st.sampled_from([4, 5]))
    J = data.draw(st.integers(1, 4))
    ranks = data.draw(st.tuples(*[st.integers(1, J)] * N))
    shape = tuple(data.draw(st.integers(r, J + 4)) for r in ranks)
    assume(max(shape) > J)
    seed = data.draw(st.integers(0, 2 ** 30))
    layout = data.draw(st.sampled_from(["C", "F", "strided"]))
    rng = np.random.default_rng(seed)
    T = rng.standard_normal(ranks)
    for n, size in enumerate(shape):
        T = mode_product(T, rng.standard_normal((size, ranks[n])), n)
    T = as_layout(T, layout)
    core, bases, estimates = mrcpd._truncate_modes(T, J, range(N))
    assert estimates == {n: min(mode_rank(T, n), J) for n in range(N)}
    assert sorted(bases) == [n for n in range(N) if shape[n] > J]
    for n, U in bases.items():
        assert U.shape == (shape[n], estimates[n]) == (shape[n], core.shape[n])
        assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)
    back = expand_core(core, bases)
    assert np.linalg.norm(back - T) <= 1e-10 * np.linalg.norm(T)


def test_truncate_modes_takes_a_tall_modes_left_basis():
    # mode 0 has 40 rows and 24 columns, so it is factored from its right
    # side; its basis must still span its columns
    truth = gen_random_ktensor((40, 2, 3, 2, 2), 3, seed=104)
    T = reconstruct(truth)
    assert 40 ** 2 > T.size
    core, bases, estimates = mrcpd._truncate_modes(T, 3, range(5))
    assert core.shape == (3, 2, 3, 2, 2) and sorted(bases) == [0]
    U = bases[0]
    assert np.allclose(U.T @ U, np.eye(3), atol=1e-12)
    M = matricize(T, 0)
    assert np.linalg.norm(M - U @ (U.T @ M)) <= 1e-12 * np.linalg.norm(M)
    assert np.linalg.norm(expand_core(core, bases) - T) \
        <= 1e-12 * np.linalg.norm(T)
    est, _, bound = mrcpd_decompose(T, 3, MrcpdOptions(
        solver_opts=solver_opts(4), restarts=4))
    assert fit(T, reconstruct(est)) >= 1 - 1e-6
    assert bound.holds


def test_given_split_passes_only_modes_above_j(monkeypatch):
    # with a split given no estimates are needed: modes at most J are not
    # factored
    seen = []
    real = mrcpd._mode_pairs

    def spy(X, k, r=None):
        seen.append(X.shape[k])
        return real(X, k, r)

    monkeypatch.setattr(mrcpd, "_mode_pairs", spy)
    T = reconstruct(gen_random_ktensor((5, 3, 6, 2), 3, seed=105))
    _, _, bound = mrcpd_decompose(T, 3, MrcpdOptions(
        split=ModeSplit((0, 1, 2, 3), (0, 1, 2, 4)),
        solver_opts=solver_opts(0)))
    assert seen == [5, 6] and bound.holds
    seen.clear()
    mrcpd_decompose(T, 3, MrcpdOptions(solver_opts=solver_opts(0)))
    assert seen == [5, 3, 6, 2]


def test_route_group_is_merged_first():
    split = ModeSplit((0, 1, 2, 3, 4), (0, 1, 3, 5))      # 1|2,3|4,5
    got = mrcpd._route_first(split, (20, 20, 20, 20, 20))
    # 20 x 400 x 400: the first of the two tied largest groups moves first
    assert got == ModeSplit((1, 2, 0, 3, 4), (0, 2, 3, 5))
    assert mrcpd._route_first(got, (20,) * 5) == got


def test_pipeline_agrees_across_layouts():
    # C- and F-ordered input differ only in the order the pass sums its
    # first Gram, so the estimates agree to rounding, not bit for bit; a
    # strided view is copied to C order once and so matches C exactly
    for seed in range(2):
        T = reconstruct(gen_bottleneck_ktensor(10, 5, seed=seed))
        opts = MrcpdOptions(solver_opts=SolverOptions(
            max_iters=mrcpd.INNER_MAX_ITERS, seed=3))
        runs = {layout: mrcpd_decompose(as_layout(T, layout), 5, opts)
                for layout in ("C", "F", "strided")}
        est_c, rep_c, bound_c = runs["C"]
        est_s, rep_s, _ = runs["strided"]
        assert rep_s.fit_trace == rep_c.fit_trace
        for A, B in zip(est_s.factors + [est_s.weights],
                        est_c.factors + [est_c.weights]):
            assert np.array_equal(A, B)
        est_f, rep_f, bound_f = runs["F"]
        assert abs(rep_f.iterations - rep_c.iterations) <= 10
        assert mrcpd._min_congruence(est_c, est_f) >= 1 - 1e-9
        perm = list(match_factors(est_c.factors[0], est_f.factors[0]).perm)
        assert np.allclose(est_f.weights[perm], est_c.weights, rtol=1e-6)
        assert bound_c.holds and bound_f.holds
        norm = np.linalg.norm(T)
        assert abs(bound_c.final_err - bound_f.final_err) <= 1e-6 * norm


def test_recover_merged_factor():
    truth = gen_random_ktensor((5, 4, 3, 6), 2, seed=77)
    T = reconstruct(truth)
    split = ModeSplit((0, 1, 2, 3), (0, 2, 3, 4))
    merged = [khatri_rao([truth.factors[0], truth.factors[1]]),
              truth.factors[2], truth.factors[3]]
    for k in range(3):
        known = [merged[i] for i in range(3) if i != k]
        got = recover_merged_factor(reduce_modes(T, split), k, known)
        assert np.allclose(got, merged[k], atol=1e-9)


def test_recover_merged_factor_validation():
    truth = gen_random_ktensor((5, 4, 3, 6), 2, seed=78)
    T = reconstruct(truth)
    split = ModeSplit((0, 1, 2, 3), (0, 2, 3, 4))
    Y3 = reduce_modes(T, split)
    with pytest.raises(ValueError, match="out of range"):
        recover_merged_factor(Y3, 3, [truth.factors[2], truth.factors[3]])
    with pytest.raises(ValueError, match="known factors"):
        recover_merged_factor(Y3, 0, [truth.factors[2]])
    with pytest.raises(ValueError, match=r"known factor 1 has shape \(3, 2\), "
                                         "but merged mode 2 has 6 rows"):
        recover_merged_factor(Y3, 0, [truth.factors[2], truth.factors[2]])
    with pytest.raises(ValueError, match="known factor 1 has 3 columns"):
        recover_merged_factor(Y3, 0, [truth.factors[2], np.ones((6, 3))])
    bad = truth.factors[3].copy()
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="known factor 1 has NaN or Inf"):
        recover_merged_factor(Y3, 0, [truth.factors[2], bad])
    dead = np.ones((3, 2))                         # collinear columns
    got = recover_merged_factor(Y3, 0, [dead, np.ones((6, 2))])
    B = khatri_rao([dead, np.ones((6, 2))])
    want = np.linalg.lstsq(B, matricize(Y3, 0).T, rcond=None)[0].T
    assert np.isfinite(got).all()
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@settings(max_examples=60)
@given(sizes=st.lists(st.integers(2, 7), min_size=3, max_size=3),
       k=st.integers(0, 2), J=st.integers(1, 4),
       layout=st.sampled_from(["C", "F"]), seed=st.integers(0, 2 ** 30))
def test_recover_merged_factor_matches_lstsq(sizes, k, J, layout, seed):
    rng = np.random.default_rng(seed)
    Y3 = np.asarray(rng.standard_normal(sizes), order=layout)
    known = [rng.standard_normal((s, J))
             for p, s in enumerate(sizes) if p != k]
    B = khatri_rao(known)
    assume(np.linalg.cond(B) < 100)
    want = np.linalg.lstsq(B, matricize(Y3, k).T, rcond=None)[0].T
    got = recover_merged_factor(Y3, k, known)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


# -------------------------------------------------------------- the bound

def test_verify_error_bound_accepts_and_rejects():
    truth = normalize(gen_random_ktensor((4, 5, 3, 4), 2, seed=79))
    T = reconstruct(truth) + 0.05
    err = np.linalg.norm(T - reconstruct(truth))
    ok = verify_error_bound(T, truth, fit3=err, eps_k=0.0)
    assert ok.holds
    assert ok.final_err == pytest.approx(err, rel=1e-12)
    assert ok.bound == pytest.approx(err, rel=1e-12)

    bad = verify_error_bound(T, truth, fit3=err / 2, eps_k=0.0)
    assert not bad.holds
    assert bad.bound == pytest.approx(err / 2, rel=1e-12)


@settings(max_examples=40)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       J=st.integers(1, 4), seed=st.integers(0, 2 ** 30),
       layout=st.sampled_from(["C", "F", "view"]))
def test_residual_norm_matches_dense_difference(shape, J, seed, layout):
    rng = np.random.default_rng(seed)
    kt = KTensor([rng.standard_normal((s, J)) for s in shape],
                 rng.uniform(0.5, 2.0, J))
    if layout == "view":
        # a transposed view: neither C- nor F-contiguous in general
        perm = rng.permutation(len(shape))
        T = np.transpose(rng.standard_normal([shape[p] for p in perm]),
                         np.argsort(perm))
    else:
        T = np.asarray(rng.standard_normal(shape), order=layout)
    want = np.linalg.norm(T - reconstruct(kt))
    assert mrcpd._residual_norm(T, kt) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("shape, J", [((12,) * 5, 30), ((60, 50, 40), 8)])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_verify_error_bound_allocates_one_tensor(shape, J, layout):
    est = normalize(gen_random_ktensor(shape, J, seed=84))
    noise = np.random.default_rng(85).standard_normal(shape)
    T = np.asarray(reconstruct(est) + 0.01 * noise, order=layout)
    tracemalloc.start()
    try:
        rep = verify_error_bound(T, est, fit3=1.0, eps_k=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.final_err == pytest.approx(
        0.01 * np.linalg.norm(noise), rel=1e-9)
    assert peak <= 1.5 * T.nbytes


def test_pipeline_residuals_share_one_rule(monkeypatch):
    # fit3 (on the merged tensor) and final_err (on the input) both come
    # from _residual_norm
    seen = []
    real = mrcpd._residual_norm

    def spy(T, kt):
        seen.append(T.shape)
        return real(T, kt)

    monkeypatch.setattr(mrcpd, "_residual_norm", spy)
    T = reconstruct(gen_random_ktensor((4, 3, 5, 2), 2, seed=86))
    split = ModeSplit((0, 1, 2, 3), (0, 1, 2, 4))
    _, _, bound = mrcpd_decompose(T, 2, MrcpdOptions(
        split=split, solver_opts=solver_opts(0)))
    # the route group (2, 3) is merged mode 0
    assert seen == [(10, 4, 3), (4, 3, 5, 2)]
    assert bound.holds


def test_verify_error_bound_requires_normalized_estimate():
    kt = gen_random_ktensor((4, 4, 4), 2, seed=80)   # raw normal columns
    with pytest.raises(ValueError, match="normalized"):
        verify_error_bound(reconstruct(kt), kt, 0.0, 0.0)
    with pytest.raises(ValueError, match="does not match"):
        verify_error_bound(reconstruct(kt)[:, :, :1], normalize(kt), 0.0, 0.0)


def test_bound_pieces_from_exact_pipeline():
    # run the merge / solve / split steps by hand on exact data; with an
    # exact third-order model the projection residual is the whole story
    truth = gen_random_ktensor((6, 7, 8, 9), 3, seed=81)
    T = reconstruct(truth)
    split = ModeSplit((0, 1, 2, 3), (0, 2, 3, 4))
    Y3 = reduce_modes(T, split)

    merged = KTensor([khatri_rao([truth.factors[0], truth.factors[1]]),
                      truth.factors[2], truth.factors[3]])
    fit3 = np.linalg.norm(Y3 - reconstruct(merged))
    assert fit3 < 1e-9 * np.linalg.norm(T)

    from cpdkit.krproj import kr_project
    factors01, eps = kr_project(merged.factors[0], (6, 7))
    assert eps < 1e-10
    est = normalize(KTensor([factors01[0], factors01[1],
                             truth.factors[2], truth.factors[3]]))
    rep = verify_error_bound(T, est, fit3, eps)
    assert rep.holds
    assert abs(rep.final_err - rep.fit3) <= 1e-9 * np.linalg.norm(T)


# ------------------------------------------------------------- end to end

def test_decompose_exact_recovery():
    truth = gen_random_ktensor((6, 5, 7, 4), 3, seed=82)
    T = reconstruct(truth)
    est, rep, bound = mrcpd_decompose(
        T, 3, MrcpdOptions(solver_opts=solver_opts(5), restarts=6))
    assert fit(T, reconstruct(est)) > 1 - 1e-6
    assert bound.holds
    assert rep.iterations >= 1
    assert est.shape == truth.shape and est.rank == 3


def test_decompose_explicit_split_and_order5():
    truth = gen_random_ktensor((4, 3, 5, 3, 4), 2, seed=83)
    T = reconstruct(truth)
    split = ModeSplit((2, 0, 4, 1, 3), (0, 2, 4, 5))
    est, _, bound = mrcpd_decompose(
        T, 2, MrcpdOptions(split=split, solver_opts=solver_opts(1),
                           restarts=4))
    assert fit(T, reconstruct(est)) > 1 - 1e-6
    assert bound.holds


def test_decompose_with_svd_compression():
    truth = gen_random_ktensor((10, 6, 5, 4), 2, seed=85)
    T = reconstruct(truth)
    est, _, bound = mrcpd_decompose(
        T, 2, MrcpdOptions(compression=Compression("svd"),
                           solver_opts=solver_opts(2), restarts=4))
    assert fit(T, reconstruct(est)) > 1 - 1e-6
    assert bound.holds


def test_svd_compression_ignores_basis_signs(monkeypatch):
    # the largest merged mode is 1, which the inner solve does not update
    # first: flipping basis columns must not change the result
    truth = gen_random_ktensor((6, 5, 4, 7), 3, seed=97)
    T = reconstruct(truth)
    T = T + 0.05 * np.linalg.norm(T) / np.sqrt(T.size) \
        * np.random.default_rng(98).standard_normal(T.shape)
    opts = MrcpdOptions(split=ModeSplit((0, 1, 2, 3), (0, 1, 3, 4)),
                        compression=Compression("svd"),
                        solver_opts=solver_opts(10, max_iters=200, tol=1e-9),
                        restarts=3)
    est_a, rep_a, bound_a = mrcpd_decompose(T, 3, opts)

    real = mrcpd.left_singular_pairs

    def flipped(M, rtol, r=None, name="M"):
        U, s = real(M, rtol, r, name)
        U = U.copy()
        U[:, ::2] *= -1
        return U, s

    monkeypatch.setattr(mrcpd, "left_singular_pairs", flipped)
    # the pass over the original modes factors through uniqueness
    monkeypatch.setattr(uniqueness, "left_singular_pairs", flipped)
    est_b, rep_b, bound_b = mrcpd_decompose(T, 3, opts)
    assert rep_a.iterations == rep_b.iterations
    assert rep_a.fit_trace == rep_b.fit_trace
    assert bound_a.final_err == bound_b.final_err
    for A, B in zip(est_a.factors, est_b.factors):
        assert np.array_equal(A, B)
    assert np.array_equal(est_a.weights, est_b.weights)


@pytest.mark.parametrize("shape, split, above", [
    # merged 20 x 6 x 2: the route mode and one more are above J
    ((4, 5, 6, 2), ModeSplit((0, 1, 2, 3), (0, 2, 3, 4)), 2),
    # merged 30 x 20 x 4: all three, and mode 1's compressed unfolding is
    # tall (20 x 12)
    ((5, 6, 4, 5, 4), ModeSplit((0, 1, 2, 3, 4), (0, 2, 4, 5)), 3),
    # merged 9 x 4 x 24: the pass shrinks modes 0 and 3 to 3, so the route
    # group (3, 4) is 9 on the core and is whitened to 3, and group (1, 2),
    # whose members are all at most J, is projected from 4 to 3 on the core
    ((9, 2, 2, 8, 3), ModeSplit((0, 1, 2, 3, 4), (0, 1, 3, 5)), 3),
    # merged 7 x 6 x 6: the route group is mode 0 alone, the one original
    # mode above J, so its core mode has 3 rows and is whitened there; the
    # two other groups have no member above J and are projected on the core
    ((7, 3, 2, 2, 3), ModeSplit((0, 1, 2, 3, 4), (0, 1, 3, 5)), 3)])
def test_restarts_solve_a_core_of_at_most_j_per_mode(shape, split, above):
    J = 3
    T = reconstruct(gen_random_ktensor(shape, J, seed=103))
    assert sum(size > J for size in split.group_sizes(shape)) == above
    cores = []
    real = als.get_solver("als")

    def recording(T3, J, opts):
        cores.append(T3.shape)
        return real(T3, J, opts)

    als.register_solver("als", recording)
    try:
        est, _, bound = mrcpd_decompose(T, J, MrcpdOptions(
            split=split, solver_opts=solver_opts(3, max_iters=1000, tol=0.0),
            restarts=4))
    finally:
        als.register_solver("als", real)
    assert cores and all(max(core) <= J for core in cores)
    assert fit(T, reconstruct(est)) >= 1 - 1e-9
    assert bound.holds


def test_decompose_rejects_init():
    T = reconstruct(gen_random_ktensor((4, 3, 4, 3), 2, seed=99))
    init = gen_random_ktensor((4, 3, 4, 3), 2, seed=100)
    with pytest.raises(ValueError, match="solver_opts.init"):
        mrcpd_decompose(T, 2, MrcpdOptions(solver_opts=SolverOptions(
            init=init)))


def test_decompose_truncated_rank_bound_still_holds():
    truth = gen_random_ktensor((6, 6, 5, 5), 4, seed=87)
    T = reconstruct(truth)
    est, _, bound = mrcpd_decompose(
        T, 3, MrcpdOptions(solver_opts=solver_opts(6, tol=1e-10), restarts=2))
    assert bound.holds
    assert bound.final_err <= bound.bound + 1e-9 * np.linalg.norm(T)
    assert bound.eps_k > 0


def test_decompose_restart_determinism():
    truth = gen_random_ktensor((5, 5, 5, 5), 3, seed=88)
    T = reconstruct(truth)
    opts = MrcpdOptions(solver_opts=solver_opts(9), restarts=3)
    _, rep_a, bound_a = mrcpd_decompose(T, 3, opts)
    _, rep_b, bound_b = mrcpd_decompose(T, 3, opts)
    assert rep_a.final_fit == rep_b.final_fit
    assert bound_a.final_err == bound_b.final_err


def test_decompose_restarts_take_any_seed(monkeypatch):
    truth = gen_random_ktensor((5, 5, 5, 5), 3, seed=88)
    T = reconstruct(truth)
    seeds = []

    def recording(T3, J, opts):
        seeds.append(copy.deepcopy(opts.seed))
        return cp_als(T3, J, opts)

    monkeypatch.setitem(als._SOLVERS, "als", recording)
    # int and SeedSequence seeds restart from their SeedSequence's children
    # (restarts is a maximum: the ones that ran take the first children)
    for seed in (9, np.random.SeedSequence(9)):
        seeds.clear()
        mrcpd_decompose(T, 3, MrcpdOptions(solver_opts=solver_opts(seed),
                                           restarts=3))
        assert 2 <= len(seeds) <= 3
        want = np.random.SeedSequence(9).spawn(len(seeds))
        assert [np.random.default_rng(s).random(4).tolist() for s in seeds] \
            == [np.random.default_rng(c).random(4).tolist() for c in want]
    # a Generator seed spawns its own children, reproducibly
    runs = []
    for _ in range(2):
        _, rep, bound = mrcpd_decompose(T, 3, MrcpdOptions(
            solver_opts=solver_opts(np.random.default_rng(0)), restarts=2))
        assert bound.holds
        runs.append(rep.final_fit)
    assert runs[0] == runs[1]


def test_decompose_repeats_with_one_seed_sequence():
    # spawning restart seeds must not advance the caller's SeedSequence
    truth = gen_random_ktensor((5, 4, 4, 3), 3, seed=90)
    T = reconstruct(truth) + 0.05 * np.random.default_rng(91) \
        .standard_normal((5, 4, 4, 3))
    ss = np.random.SeedSequence(92)
    opts = MrcpdOptions(solver_opts=solver_opts(ss, max_iters=30, tol=0.0),
                        restarts=4)
    est_a, rep_a, _ = mrcpd_decompose(T, 3, opts)
    est_b, rep_b, _ = mrcpd_decompose(T, 3, opts)
    assert rep_a.fit_trace == rep_b.fit_trace
    for A, B in zip(est_a.factors, est_b.factors):
        assert np.array_equal(A, B)
    assert ss.n_children_spawned == 0


def scripted_solver(results):
    """A fake inner solver returning ``(KTensor, fit)`` pairs in order."""
    calls = []

    def solve(T3, J, opts):
        kt, f = results[len(calls)]
        calls.append(opts.seed)
        return kt, als.SolveReport(iterations=1, fit_trace=[f], final_fit=f)
    return solve, calls


def basin(seed, J=3):
    return KTensor([np.random.default_rng(seed).standard_normal((s, J))
                    for s in (4, 5, 6)])


def same_basin(kt, perm=(2, 0, 1)):
    """``kt`` with its columns permuted, rescaled and sign-flipped."""
    perm = list(perm)
    return KTensor([-2.0 * kt.factors[0][:, perm], kt.factors[1][:, perm],
                    0.5 * kt.factors[2][:, perm]])


@settings(max_examples=40)
@given(data=st.data())
def test_min_congruence_matches_normalize_then_multiply(data):
    J = data.draw(st.integers(1, 5))
    shape = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 30)))
    a, b = (KTensor([rng.standard_normal((s, J)) for s in shape],
                    rng.uniform(-2.0, 2.0, J)) for _ in range(2))
    if data.draw(st.booleans()):
        a.factors[-1][:, 0] = 0.0
    C = np.ones((J, J))
    for A, B in zip(normalize(a, all_modes=True).factors,
                    normalize(b, all_modes=True).factors):
        C *= np.abs(A.T @ B)
    rows, cols = linear_sum_assignment(-C)
    assert mrcpd._min_congruence(a, b) == pytest.approx(
        C[rows, cols].min(), rel=1e-12, abs=1e-15)


def test_restarts_stop_once_two_agree():
    good = basin(1)
    results = [(basin(2), 0.80), (good, 0.95), (basin(3), 0.85),
               (same_basin(good), 0.95 + 5e-7), (basin(4), 0.70)]
    solve, calls = scripted_solver(results)
    kt, rep = mrcpd._solve_with_restarts(
        solve, None, 3, MrcpdOptions(solver_opts=solver_opts(5), restarts=6))
    assert len(calls) == 4
    assert rep.final_fit == 0.95 + 5e-7
    assert kt is results[3][0]


def test_restarts_go_on_when_fits_agree_but_factors_do_not():
    # two bad basins with equal fits, then nothing agrees: all restarts run
    results = [(basin(5), 0.85), (basin(6), 0.85 + 5e-7), (basin(7), 0.60)]
    solve, calls = scripted_solver(results)
    _, rep = mrcpd._solve_with_restarts(
        solve, None, 3, MrcpdOptions(solver_opts=solver_opts(5), restarts=3))
    assert len(calls) == 3
    assert rep.final_fit == 0.85 + 5e-7
    assert mrcpd._min_congruence(basin(5), basin(6)) < mrcpd.AGREE_CONGRUENCE
    # congruent factors but fits apart by more than the tolerance
    good = basin(8)
    solve, calls = scripted_solver(
        [(good, 0.9), (same_basin(good), 0.9 + 2e-6), (basin(9), 0.5)])
    mrcpd._solve_with_restarts(
        solve, None, 3, MrcpdOptions(solver_opts=solver_opts(5), restarts=3))
    assert len(calls) == 3
    # equal fits, two of three components the same: the minimum decides
    near = same_basin(good)
    near.factors[1][:, 0] = basin(11).factors[1][:, 0]
    solve, calls = scripted_solver([(good, 0.9), (near, 0.9), (basin(9), 0.5)])
    mrcpd._solve_with_restarts(
        solve, None, 3, MrcpdOptions(solver_opts=solver_opts(5), restarts=3))
    assert len(calls) == 3


def test_one_restart_calls_the_solver_once():
    solve, calls = scripted_solver([(basin(10), 0.9), (basin(10), 0.9)])
    mrcpd._solve_with_restarts(
        solve, None, 3, MrcpdOptions(solver_opts=solver_opts(5), restarts=1))
    assert calls == [5]


def test_decompose_nonneg_projection():
    rng = np.random.default_rng(89)
    truth = KTensor([rng.uniform(0.1, 1.0, (5, 2)) for _ in range(4)])
    T = reconstruct(truth)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est, _, bound = mrcpd_decompose(
            T, 2,
            MrcpdOptions(nonneg=True, solver_opts=solver_opts(7),
                         restarts=4))
    assert bound.holds
    # modes 2 and 3 come out of the constrained projection; mode 2 holds the
    # unit directions, so it must respect the constraint regardless of the
    # sign the unconstrained third-order solve picked for the merged column
    assert np.all(est.factors[2] >= -1e-12)


def test_nonneg_without_singleton_group():
    # every group is projected, so the last one absorbs the sign flips; on
    # exactly nonnegative data the constrained run keeps the unconstrained
    # fit
    rng = np.random.default_rng(209)
    shape = (3, 2, 3, 2, 3, 2)
    T = reconstruct(KTensor([rng.uniform(0.1, 1.0, (s, 2)) for s in shape]))
    split = ModeSplit(tuple(range(6)), (0, 2, 4, 6))
    fits = []
    for nonneg in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est, _, bound = mrcpd_decompose(T, 2, MrcpdOptions(
                split=split, nonneg=nonneg, solver_opts=solver_opts(7)))
        assert bound.holds
        fits.append(fit(T, reconstruct(est)))
    assert abs(fits[1] - fits[0]) <= 1e-6


def test_decompose_validation():
    T4 = reconstruct(gen_random_ktensor((4, 4, 4, 4), 2, seed=90))
    with pytest.raises(ValueError, match="order"):
        mrcpd_decompose(np.ones((3, 3, 3)), 2)
    with pytest.raises(ValueError, match="rank"):
        mrcpd_decompose(T4, 0)
    with pytest.raises(ValueError, match="rank must be an integer, got 2.5"):
        mrcpd_decompose(T4, 2.5)
    with pytest.raises(ValueError, match="restarts must be an integer"):
        MrcpdOptions(restarts=2.5)
    assert type(MrcpdOptions(restarts=np.int64(2)).restarts) is int
    with pytest.raises(ValueError, match="split covers"):
        mrcpd_decompose(T4, 2, MrcpdOptions(
            split=ModeSplit((0, 1, 2), (0, 1, 2, 3))))
    with pytest.raises(ValueError, match="groups"):
        mrcpd_decompose(T4, 2, MrcpdOptions(
            split=ModeSplit((0, 1, 2, 3), (0, 2, 4))))


def test_decompose_rejects_complex_input():
    T = reconstruct(gen_random_ktensor((4, 4, 4, 4), 2, seed=92)) * (1 + 1j)
    with pytest.raises(ValueError, match="complex"):
        mrcpd_decompose(T, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_rejects_non_finite(bad):
    T = reconstruct(gen_random_ktensor((4, 4, 4, 4), 2, seed=92))
    T[0, 1, 2, 3] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        mrcpd_decompose(T, 2)


@pytest.mark.parametrize("kind", ["svd"])
@settings(max_examples=10)
@given(data=st.data())
def test_pipeline_properties(kind, data):
    # random exact low-rank order-4/5 tensors, any three-group split, and a
    # rank at or below the true rank
    N = data.draw(st.sampled_from([4, 5]))
    shape = data.draw(st.tuples(*[st.integers(2, 5)] * N))
    R = data.draw(st.integers(1, 4))
    J = data.draw(st.integers(1, R))
    seed = data.draw(st.integers(0, 2 ** 30))
    b1 = data.draw(st.integers(1, N - 2))
    b2 = data.draw(st.integers(b1 + 1, N - 1))
    split = ModeSplit(data.draw(st.permutations(range(N))), (0, b1, b2, N))
    comp = Compression(kind)
    truth = gen_random_ktensor(shape, R, seed=seed)
    T = reconstruct(truth)
    norm_t = np.linalg.norm(T)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        est, _, bound = mrcpd_decompose(T, J, MrcpdOptions(
            split=split, compression=comp,
            solver_opts=solver_opts(seed, max_iters=30, tol=1e-10)))
    assert bound.holds
    final_err = np.linalg.norm(T - reconstruct(est))
    assert final_err <= (bound.fit3 + np.sqrt(J) * bound.eps_k
                         + 1e-9 * norm_t)

    Y3 = reduce_modes(T, split)
    merged = [khatri_rao([truth.factors[m] for m in g])
              for g in split.group_modes()]
    for k in range(3):
        others = [merged[p] for p in range(3) if p != k]
        got = recover_merged_factor(Y3, k, others)
        assert np.linalg.norm(got - merged[k]) <= 1e-8 * np.linalg.norm(
            merged[k])


def test_options_validation():
    with pytest.raises(ValueError):
        MrcpdOptions(restarts=0)
    with pytest.raises(ValueError, match="compression is always on"):
        MrcpdOptions(compression=None)
    assert MrcpdOptions().compression == Compression("svd")
    assert MrcpdOptions().solver_opts.max_iters == mrcpd.INNER_MAX_ITERS
    for kind in ("lossy", "fibers"):
        with pytest.raises(ValueError, match="unknown compression kind"):
            Compression(kind)
    assert Compression("svd").kind == "svd"


def test_infeasible_rank_raises_before_any_solve(monkeypatch):
    def unreachable(*args):
        raise AssertionError("merged the tensor for an infeasible rank")

    monkeypatch.setattr(mrcpd, "reduce_modes", unreachable)
    T = np.random.default_rng(87).standard_normal((10, 10, 2, 3))
    split = ModeSplit((0, 1, 2, 3), (0, 2, 3, 4))
    with pytest.raises(ValueError, match=r"rank 7 exceeds the feasible rank 6 "
                                         r"of the merged 100x2x3 tensor"):
        mrcpd_decompose(T, 7, MrcpdOptions(split=split))
    monkeypatch.undo()
    est, _, bound = mrcpd_decompose(T, 6, MrcpdOptions(
        split=split, solver_opts=solver_opts(0)))
    assert est.rank == 6 and bound.holds
