"""Alternating least squares solver behavior and the solver registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdkit import als, linalg
from cpdkit.als import SolverOptions, cp_als, get_solver, register_solver
from cpdkit.ktensor import KTensor, fit, reconstruct
from cpdkit.tensor import matricize
from cpdkit.linalg import pinv_cutoff
from cpdkit.mrcpd import MrcpdOptions, mrcpd_decompose
from cpdkit.synth import gen_random_ktensor


def best_of(T, J, seeds, **kw):
    runs = [cp_als(T, J, SolverOptions(seed=s, **kw)) for s in seeds]
    return max(runs, key=lambda r: r[1].final_fit)


def test_exact_recovery_small():
    truth = gen_random_ktensor((4, 5, 6), 2, seed=31)
    T = reconstruct(truth)
    kt, rep = best_of(T, 2, range(4), max_iters=500, tol=1e-14)
    assert rep.final_fit > 1 - 1e-8
    assert fit(T, reconstruct(kt)) > 1 - 1e-8


def test_fit_trace_is_monotone():
    truth = gen_random_ktensor((6, 5, 4, 3), 3, seed=32)
    T = reconstruct(truth)
    _, rep = cp_als(T, 3, SolverOptions(max_iters=60, tol=0.0, seed=1))
    diffs = np.diff(rep.fit_trace)
    assert np.all(diffs >= -1e-10)
    assert rep.iterations == len(rep.fit_trace) == 60
    assert not rep.converged


def test_converged_flag_and_iteration_count():
    truth = gen_random_ktensor((5, 5, 5), 2, seed=33)
    T = reconstruct(truth)
    _, rep = cp_als(T, 2, SolverOptions(max_iters=300, tol=1e-6, seed=0))
    assert rep.converged
    assert rep.iterations < 300
    assert rep.runtime_s > 0


def test_final_fit_matches_direct_residual():
    # the cached-cross-product fit must agree with the dense one
    truth = gen_random_ktensor((5, 4, 6), 3, seed=34)
    T = reconstruct(truth) + 0.01 * np.random.default_rng(34).standard_normal(
        (5, 4, 6))
    kt, rep = cp_als(T, 2, SolverOptions(max_iters=50, seed=2))
    direct = fit(T, reconstruct(kt))
    assert rep.final_fit == pytest.approx(direct, abs=1e-7)


def test_output_is_normalized():
    truth = gen_random_ktensor((5, 4, 3), 2, seed=35)
    kt, _ = cp_als(reconstruct(truth), 2, SolverOptions(max_iters=20, seed=0))
    for A in kt.factors[:-1]:
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0)


def test_seed_determinism():
    T = reconstruct(gen_random_ktensor((5, 5, 5), 3, seed=36))
    _, rep_a = cp_als(T, 3, SolverOptions(max_iters=25, tol=0.0, seed=11))
    _, rep_b = cp_als(T, 3, SolverOptions(max_iters=25, tol=0.0, seed=11))
    _, rep_c = cp_als(T, 3, SolverOptions(max_iters=25, tol=0.0, seed=12))
    assert rep_a.fit_trace == rep_b.fit_trace
    assert rep_a.fit_trace[0] != rep_c.fit_trace[0]


def test_init_ktensor_short_circuits():
    truth = gen_random_ktensor((5, 4, 3), 2, seed=37)
    T = reconstruct(truth)
    # the cached-residual cancellation floor is around 1e-8, not 1e-15
    _, rep = cp_als(T, 2, SolverOptions(max_iters=10, tol=1e-6, init=truth))
    assert rep.final_fit > 1 - 1e-6
    assert rep.iterations <= 3


def test_init_shape_mismatch():
    truth = gen_random_ktensor((5, 4, 3), 2, seed=38)
    with pytest.raises(ValueError, match="init"):
        cp_als(np.zeros((5, 4, 4)) + 1.0, 2, SolverOptions(init=truth))
    with pytest.raises(ValueError, match="init"):
        cp_als(reconstruct(truth), 3, SolverOptions(init=truth))


def test_infeasible_rank_warns():
    T = reconstruct(gen_random_ktensor((2, 2, 2), 2, seed=39))
    with pytest.warns(RuntimeWarning, match="feasible rank"):
        cp_als(T, 5, SolverOptions(max_iters=3, seed=0))


def test_input_validation():
    with pytest.raises(ValueError):
        cp_als(np.zeros((3, 3, 3)), 2)
    with pytest.raises(ValueError):
        cp_als(np.ones(5), 1)
    with pytest.raises(ValueError):
        cp_als(np.ones((3, 3)), 0)


def test_order_two_works():
    rng = np.random.default_rng(40)
    M = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 7))
    kt, rep = best_of(M, 3, range(3), max_iters=400, tol=1e-14)
    assert rep.final_fit > 1 - 1e-6


def test_registered_als_rejects_higher_order():
    solver = get_solver("als")
    with pytest.raises(ValueError, match="third-order"):
        solver(np.ones((2, 2, 2, 2)), 1, SolverOptions(max_iters=1))


def test_solver_registry():
    with pytest.raises(KeyError, match="no solver registered"):
        get_solver("does-not-exist")
    with pytest.raises(TypeError):
        register_solver("bad", 42)

    calls = []

    def probe(T3, J, opts):
        calls.append(J)
        return cp_als(T3, J, opts)

    register_solver("probe-for-tests", probe)
    got = get_solver("probe-for-tests")
    T = reconstruct(gen_random_ktensor((4, 4, 4), 2, seed=41))
    got(T, 2, SolverOptions(max_iters=2, seed=0))
    assert calls == [2]


def test_registry_hooks_seen_from_outside(monkeypatch):
    # Span tracers rely on two things: the "als" entry resolves
    # cpdkit.als.cp_als when it is called, not when it was registered, and
    # mrcpd_decompose returns a report sharing its fit_trace list with the
    # report of the restart it kept.
    calls = []

    def spy(T, J, opts):
        calls.append(T.shape)
        return cp_als(T, J, opts)

    monkeypatch.setattr(als, "cp_als", spy)
    T3 = reconstruct(gen_random_ktensor((4, 4, 4), 2, seed=42))
    get_solver("als")(T3, 2, SolverOptions(max_iters=2, seed=0))
    assert calls == [(4, 4, 4)]

    original = get_solver("als")
    reports = []

    def probe(T, J, opts):
        kt, rep = original(T, J, opts)
        reports.append(rep)
        return kt, rep

    register_solver("als", probe)
    try:
        T = reconstruct(gen_random_ktensor((4, 3, 4, 3), 2, seed=43))
        _, rep, _ = mrcpd_decompose(T, 2, MrcpdOptions(
            solver_opts=SolverOptions(max_iters=20, seed=1), restarts=3))
    finally:
        register_solver("als", original)
    # restarts=3 is a maximum: two restarts that agree end the search
    assert 2 <= len(reports) <= 3
    kept = [r for r in reports if r.fit_trace is rep.fit_trace]
    assert len(kept) == 1
    assert kept[0].final_fit == max(r.final_fit for r in reports)


def test_solver_options_validation():
    with pytest.raises(ValueError, match="max_iters"):
        SolverOptions(max_iters=0)
    with pytest.raises(ValueError, match="tol"):
        SolverOptions(tol=-1e-9)
    with pytest.raises(ValueError, match="tol"):
        SolverOptions(tol=float("nan"))
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverOptions(max_iters=2.5)
    assert SolverOptions(max_iters=1, tol=0.0).max_iters == 1
    assert type(SolverOptions(max_iters=np.int64(2)).max_iters) is int


def test_rank_must_be_an_integer():
    # a NumPy integer is a rank; 2.5 fails in one line that names it
    T = reconstruct(gen_random_ktensor((4, 3, 5), 2, seed=34))
    with pytest.raises(ValueError, match="rank must be an integer, got 2.5"):
        cp_als(T, 2.5)
    kt, rep = cp_als(T, np.int32(2), SolverOptions(max_iters=2, seed=0))
    assert kt.rank == 2 and rep.iterations == 2


def test_cp_als_rejects_complex_input():
    T = reconstruct(gen_random_ktensor((4, 3, 5), 2, seed=34)) + 0j
    with pytest.raises(ValueError, match="complex"):
        cp_als(T, 2, SolverOptions(seed=0))
    with pytest.raises(ValueError, match="complex"):
        get_solver("als")(T, 2, SolverOptions(seed=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cp_als_rejects_non_finite(bad):
    T = reconstruct(gen_random_ktensor((4, 3, 5), 2, seed=34))
    T[1, 2, 3] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        cp_als(T, 2, SolverOptions(seed=0))


def pinv_spy(monkeypatch):
    calls = []
    real = np.linalg.pinv

    def spy(V, *args, **kwargs):
        calls.append(V.shape)
        return real(V, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", spy)
    return calls


@settings(max_examples=40)
@given(J=st.integers(1, 48), rows=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gram_solve_matches_pinv(J, rows, seed):
    # a Gram of a tall Gaussian matrix is well conditioned
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((4 * J, J))
    V = F.T @ F
    W = rng.standard_normal((rows, J))
    want = W @ np.linalg.pinv(V, rcond=pinv_cutoff(V))
    got = als._solve_gram(W, V)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("scale", [0.0, 1e-9])
def test_gram_solve_falls_back_on_singular(monkeypatch, scale):
    # a zero column breaks the Cholesky factorization; a tiny one passes it
    # with a pivot ratio below the cutoff
    rng = np.random.default_rng(34)
    F = rng.standard_normal((20, 5))
    F[:, 4] *= scale
    V = F.T @ F
    W = rng.standard_normal((7, 5))
    want = W @ np.linalg.pinv(V, rcond=pinv_cutoff(V))
    calls = pinv_spy(monkeypatch)
    assert np.array_equal(als._solve_gram(W, V), want)
    assert calls == [(5, 5)]


def test_sweep_solves_by_cholesky_with_numpy(monkeypatch):
    # a well-posed sweep never reaches the pseudo-inverse; it forms its
    # Khatri-Rao products through linalg, one per sweep on any third-order
    # shape: the largest mode takes the own-mode product and the others
    # contract it first
    calls = pinv_spy(monkeypatch)
    seen = []
    real_kr = linalg.khatri_rao

    def kr(mats):
        seen.append(len(mats))
        return real_kr(mats)

    monkeypatch.setattr(als, "khatri_rao", kr)
    for shape in [(5, 5, 5), (6, 6, 4), (3, 9, 4)]:
        seen.clear()
        T = reconstruct(gen_random_ktensor(shape, 3, seed=35))
        _, rep = cp_als(T, 3, SolverOptions(max_iters=5, tol=0.0, seed=2))
        assert seen == [2] * rep.iterations
    assert calls == []


def test_order_n_sweep_forms_no_product_of_all_other_factors(monkeypatch):
    # on an order-5 tensor the largest mode's own update leaves a neighbour
    # out of its Khatri-Rao product, so every product has N - 2 factors;
    # on (100, 2, 2, 2) that would build the larger intermediate, and the
    # own update keeps the product of all N - 1 others
    seen = []
    real_kr = linalg.khatri_rao

    def kr(mats):
        seen.append(len(mats))
        return real_kr(mats)

    monkeypatch.setattr(als, "khatri_rao", kr)
    for layout in ["C", "F"]:
        seen.clear()
        T = np.asarray(reconstruct(gen_random_ktensor((6, 4, 5, 3, 4), 3,
                                                      seed=36)), order=layout)
        _, rep = cp_als(T, 3, SolverOptions(max_iters=4, tol=0.0, seed=2))
        assert seen == [3] * 5 * rep.iterations
    seen.clear()
    T = np.random.default_rng(36).standard_normal((100, 2, 2, 2))
    _, rep = cp_als(T, 2, SolverOptions(max_iters=4, tol=0.0, seed=2))
    assert seen == [3, 2, 2, 2] * rep.iterations


def test_routes_read_one_unfolding_per_route_mode():
    # every mode reads the largest mode's unfolding (lowest index on ties);
    # the mode-reduced core's modes 0 and 2 read mode 1's
    assert als._route((48, 400, 20)) == 1
    assert als._route((20,) * 5) == 0
    assert als._route((4, 6, 6, 2)) == 1
    assert sorted(als._unfoldings(np.zeros((6, 2, 3)))) == [0]
    assert sorted(als._unfoldings(np.zeros((20,) * 5))) == [0]


def test_route_product_is_recomputed_once_its_factor_is_replaced():
    # modes 0 and 2 of a 4x9x3 tensor both contract mode 1 first; the
    # second reuses mode 0's product until A_1 is replaced
    rng = np.random.default_rng(37)
    T = rng.standard_normal((4, 9, 3))
    factors = [rng.standard_normal((s, 2)) for s in T.shape]
    routed = {}
    for n in (0, 2):
        assert np.array_equal(als._mttkrp(T, factors, n, {}, routed),
                              als._mttkrp(T, factors, n, {}))
    Zt = routed[1][1]
    als._mttkrp(T, factors, 2, {}, routed)
    assert routed[1][1] is Zt
    factors[1] = factors[1] + 1.0
    assert np.array_equal(als._mttkrp(T, factors, 0, {}, routed),
                          als._mttkrp(T, factors, 0, {}))
    assert routed[1][0] is factors[1] and routed[1][1] is not Zt


@pytest.mark.parametrize("shape", [(4, 9, 3), (5, 4, 3, 2, 3)])
def test_own_mode_update_drops_the_stale_route_product(shape):
    # the route mode's factor is replaced right after its own update, so
    # the product formed from it is released there, not when the next one
    # is stored
    rng = np.random.default_rng(37)
    T = rng.standard_normal(shape)
    factors = [rng.standard_normal((s, 2)) for s in T.shape]
    m = als._route(shape)
    routed = {}
    als._mttkrp(T, factors, (m + 1) % T.ndim, {}, routed)
    assert m in routed
    W = als._mttkrp(T, factors, m, {}, routed)
    assert m not in routed
    assert np.array_equal(W, als._mttkrp(T, factors, m, {}))


@pytest.mark.parametrize("layout", ["F", "C", "strided"])
def test_own_mode_mttkrp_reads_every_unfolding_layout(layout):
    # the cached unfolding of the largest mode is F-ordered (C-ordered
    # tensor), C-ordered (F-ordered tensor, largest mode last) or a strided
    # view (F-ordered tensor sliced in that mode); each is contracted with
    # its neighbour in memory left out of the Khatri-Rao product
    rng = np.random.default_rng(39)
    if layout == "F":
        T = rng.standard_normal((6, 3, 4, 2, 3))
    elif layout == "C":
        T = np.asfortranarray(rng.standard_normal((3, 4, 2, 3, 6)))
    else:
        T = np.asfortranarray(rng.standard_normal((12, 3, 4, 2, 3)))[::2]
    m = als._route(T.shape)
    U = als._unfoldings(T)[m]
    assert (U.flags.c_contiguous, U.flags.f_contiguous) == {
        "F": (False, True), "C": (True, False),
        "strided": (False, False)}[layout]
    factors = [rng.standard_normal((s, 4)) for s in T.shape]
    want = matricize(T, m) @ linalg.khatri_rao(
        [A for p, A in enumerate(factors) if p != m])
    got = als._mttkrp(T, factors, m, {m: U})
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("shape", [(4, 12, 3), (3, 10, 4, 2), (4, 6, 6, 2),
                                   (5, 5, 5, 5)])
def test_route_reuse_leaves_cp_als_bitwise_unchanged(monkeypatch, shape,
                                                     layout):
    rng = np.random.default_rng(38)
    if layout == "strided":
        T = rng.standard_normal([2 * s for s in shape])[
            (slice(None, None, 2),) * len(shape)]
    else:
        T = np.asarray(rng.standard_normal(shape), order=layout)
    opts = SolverOptions(max_iters=15, tol=0.0, seed=3)
    kt_a, rep_a = cp_als(T, 3, opts)
    real = als._mttkrp
    monkeypatch.setattr(
        als, "_mttkrp", lambda T, factors, n, unfoldings, routed: real(
            T, factors, n, unfoldings, {}))
    kt_b, rep_b = cp_als(T, 3, opts)
    assert rep_a.fit_trace == rep_b.fit_trace
    for A, B in zip(kt_a.factors, kt_b.factors):
        assert np.array_equal(A, B)
    assert np.array_equal(kt_a.weights, kt_b.weights)


def lopsided_tensor(draw, order):
    """A C-ordered, F-ordered or strided tensor of mixed mode sizes."""
    shape = draw(st.lists(st.integers(1, 7), min_size=order,
                          max_size=order))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if layout == "strided":
        T = rng.standard_normal([2 * s for s in shape])[(slice(None, None, 2),)
                                                         * order]
    else:
        T = np.asarray(rng.standard_normal(shape), order=layout)
    return T, rng


@settings(max_examples=60)
@given(data=st.data(), order=st.integers(3, 6), J=st.integers(1, 6),
       cache=st.booleans())
def test_mttkrp_matches_khatri_rao_product(data, order, J, cache):
    # every route equals the unfolding times the Khatri-Rao product of the
    # other factors, with the unfoldings cached or formed in the sweep
    T, rng = lopsided_tensor(data.draw, order)
    factors = [rng.standard_normal((s, J)) for s in T.shape]
    with pytest.MonkeyPatch.context() as mp:
        if not cache:
            mp.setattr(als, "UNFOLDING_CACHE_BYTES", 0)
        unfoldings = als._unfoldings(T)
    big = max(range(order), key=lambda p: (T.shape[p], -p))
    assert list(unfoldings) == ([big] if cache else [])
    for n in range(order):
        want = matricize(T, n) @ linalg.khatri_rao(
            [A for p, A in enumerate(factors) if p != n])
        got = als._mttkrp(T, factors, n, unfoldings)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
