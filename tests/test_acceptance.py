"""Acceptance suite: one test per release criterion, in order.

Every test funnels through _verdict, which prints exactly one
"criterion N (...): PASS/FAIL" line (visible with pytest -s, or on failure)
before asserting, so a red run still reports each criterion's outcome.
The two Monte-Carlo criteria run the full standard benchmarks and dominate
the suite's wall time.
"""

import csv
import dataclasses
import subprocess
import sys
from itertools import combinations
from time import perf_counter

import numpy as np

from cpdkit.als import SolverOptions
from cpdkit.bench import gcr, run_benchmark, sim1_config, sim2_config, summarize
from cpdkit.cli import parse_split
from cpdkit.krproj import kr_project
from cpdkit.ktensor import KTensor, fit, match_factors, normalize, reconstruct
from cpdkit.linalg import khatri_rao
from cpdkit.mrcpd import MrcpdOptions, mrcpd_decompose, verify_error_bound
from cpdkit.synth import gen_random_ktensor
from cpdkit.tensor import ModeSplit, matricize, reduce_modes, tensorize
from cpdkit.uniqueness import (check_unfolded_uniqueness, collinearity,
                               krank_product_bound, kruskal_rank, ksb_check)


def _verdict(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _max_column_error(truth, est):
    """Largest relative column error over all modes after matching, on
    all-modes-normalized copies (so scale sits in the weights)."""
    tn = normalize(truth, all_modes=True)
    en = normalize(est, all_modes=True)
    worst = 0.0
    for n in range(tn.order):
        res = match_factors(tn.factors[n], en.factors[n])
        for j in range(tn.rank):
            aligned = res.scales[j] * en.factors[n][:, res.perm[j]]
            worst = max(worst, float(np.linalg.norm(
                aligned - tn.factors[n][:, j])))
    return worst


def test_criterion_1_exact_recovery():
    t0 = perf_counter()
    successes = 0
    bounds_ok = True
    for child in np.random.SeedSequence(314159).spawn(20):
        gen_ss, solve_ss = child.spawn(2)
        rng = np.random.default_rng(gen_ss)
        N = int(rng.integers(4, 6))
        shape = tuple(int(s) for s in rng.integers(6, 11, N))
        J = int(rng.integers(2, 5))
        factors = [np.linalg.qr(rng.standard_normal((s, J)))[0] for s in shape]
        truth = KTensor(factors, rng.uniform(0.5, 2.0, J))
        T = reconstruct(truth)
        est, _, bound = mrcpd_decompose(T, J, MrcpdOptions(
            restarts=8,
            solver_opts=SolverOptions(max_iters=500, tol=1e-12, seed=solve_ss)))
        bounds_ok &= bound.holds
        if (fit(T, reconstruct(est)) >= 1 - 1e-6
                and _max_column_error(truth, est) < 1e-4):
            successes += 1
    elapsed = perf_counter() - t0
    _verdict(1, "exact recovery via mode reduction",
             successes >= 18 and bounds_ok and elapsed < 30.0,
             f"{successes}/20 recovered, bounds held: {bounds_ok}, "
             f"{elapsed:.1f}s")


def test_criterion_2_kr_projection_exactness():
    t0 = perf_counter()
    hits = 0
    worst_eps = 0.0
    worst_fac = 0.0
    for i, child in enumerate(np.random.SeedSequence(271828).spawn(100)):
        rng = np.random.default_rng(child)
        P = 2 if i % 2 == 0 else 3
        sizes = tuple(int(s) for s in rng.integers(2, 9, P))
        J = int(rng.integers(1, 7))
        mats = [rng.standard_normal((s, J)) for s in sizes]
        # nonneg picks the fitter: the power one runs on nonnegative data
        nonneg = i % 4 >= 2
        if nonneg:
            mats = [np.abs(M) for M in mats]
        factors, eps = kr_project(khatri_rao(mats), sizes, nonneg=nonneg)
        fac_err = 0.0
        for got, want in zip(factors, mats):
            for j in range(J):
                g = got[:, j]
                resid = want[:, j] - (want[:, j] @ g) / (g @ g) * g
                fac_err = max(fac_err, float(np.linalg.norm(resid)
                                             / np.linalg.norm(want[:, j])))
        worst_eps = max(worst_eps, eps)
        worst_fac = max(worst_fac, fac_err)
        if eps < 1e-10 and fac_err < 1e-8:
            hits += 1
    elapsed = perf_counter() - t0
    _verdict(2, "Khatri-Rao projection exactness",
             hits == 100 and elapsed < 5.0,
             f"{hits}/100, worst eps {worst_eps:.2e}, worst factor error "
             f"{worst_fac:.2e}, {elapsed:.1f}s")


def _kruskal_rank_oracle(M):
    I, J = M.shape
    best = 0
    for r in range(1, min(I, J) + 1):
        if all(np.linalg.matrix_rank(M[:, c]) == r
               for c in combinations(range(J), r)):
            best = r
        else:
            break
    return best


def test_criterion_3_kruskal_rank_oracle():
    rng = np.random.default_rng(577215)
    exact = 0
    for trial in range(50):
        I = int(rng.integers(3, 11))
        J = int(rng.integers(2, 9))
        M = rng.standard_normal((I, J))
        kind = trial % 5
        if kind == 1:
            M[:, J - 1] = M[:, 0]                      # duplicate pair
        elif kind == 2:
            M[:, 0] = 0.0                              # dead column
        elif kind == 3 and J >= 3:
            M[:, 2] = M[:, 0] - M[:, 1]                # dependent triple
        elif kind == 4:
            r = int(rng.integers(1, min(I, J) + 1))    # low-rank product
            M = rng.standard_normal((I, r)) @ rng.standard_normal((r, J))
        if kruskal_rank(M) == _kruskal_rank_oracle(M):
            exact += 1

    product_ok = 0
    for trial in range(100):
        J = int(rng.integers(2, 7))
        A = rng.standard_normal((int(rng.integers(2, 7)), J))
        B = rng.standard_normal((int(rng.integers(2, 7)), J))
        if trial % 4 == 0:
            A[:, J - 1] = A[:, 0]                      # drags krank(A) to 1
        lower = krank_product_bound([kruskal_rank(A), kruskal_rank(B)], J)
        if kruskal_rank(khatri_rao([A, B])) >= lower:
            product_ok += 1

    _verdict(3, "exact Kruskal rank and the product lower bound",
             exact == 50 and product_ok == 100,
             f"oracle match {exact}/50, product bound {product_ok}/100")


def test_criterion_4_uniqueness_worked_example():
    kranks = (10, 9, 8, 7, 6)
    nway = ksb_check(kranks, 18)
    split = parse_split("1|2,3|4,5")
    grouped = check_unfolded_uniqueness(kranks, 18, split)
    ok = (nway.margin == 0 and nway.satisfied
          and grouped.margin == 0 and grouped.satisfied
          and grouped.group_bounds == (10, 16, 12))
    _verdict(4, "Kruskal-sum worked example",
             ok,
             f"full margin {nway.margin}, grouped margin {grouped.margin}, "
             f"bounds {grouped.group_bounds}")


def test_criterion_5_random_factor_benchmark():
    t0 = perf_counter()
    records = run_benchmark(sim1_config(runs=10, seed=7))
    elapsed = perf_counter() - t0
    summ = summarize(records, 0.99)
    gcr_mr = gcr(records, 0.99, "mrcpd")
    gcr_als = gcr(records, 0.99, "als")
    ratio = (summ["mrcpd"]["median_runtime_s"]
             / summ["als"]["median_runtime_s"])
    ok = (gcr_mr >= 80.0 and gcr_als <= 60.0 and ratio <= 0.25
          and elapsed < 1800.0)
    _verdict(5, "random-factor benchmark",
             ok,
             f"GCR mrcpd {gcr_mr:.0f}% / als {gcr_als:.0f}%, median runtime "
             f"ratio {ratio:.3f}, {elapsed:.0f}s")


def test_criterion_6_bottleneck_benchmark():
    t0 = perf_counter()
    cfg = dataclasses.replace(sim2_config(runs=10, seed=7, scale=20),
                              snr_db=None)
    records = run_benchmark(cfg)
    elapsed = perf_counter() - t0
    fits = {}
    msirs = {}
    for method in ("als", "mrcpd"):
        rows = [r for r in records if r.method == method]
        fits[method] = float(np.mean([r.fit_observed for r in rows]))
        msirs[method] = float(np.mean([r.msir_mean for r in rows]))
    gap = msirs["mrcpd"] - msirs["als"]
    ok = (fits["als"] >= 0.99 and fits["mrcpd"] >= 0.99 and gap >= 10.0
          and elapsed < 600.0)
    _verdict(6, "bottleneck benchmark",
             ok,
             f"mean fit als {fits['als']:.4f} / mrcpd {fits['mrcpd']:.4f}, "
             f"mSIR gap {gap:.1f} dB, {elapsed:.0f}s")


def test_criterion_7_error_bound():
    holding = 0
    min_slack = np.inf
    for child in np.random.SeedSequence(161803).spawn(50):
        params_ss, data_ss, solve_ss = child.spawn(3)
        rng = np.random.default_rng(params_ss)
        N = int(rng.integers(4, 6))
        shape = tuple(int(s) for s in rng.integers(6, 10, N))
        R = int(rng.integers(3, 7))
        truth = gen_random_ktensor(shape, R, seed=data_ss)
        T = reconstruct(truth)
        _, _, bound = mrcpd_decompose(T, R - 1, MrcpdOptions(
            restarts=2,
            solver_opts=SolverOptions(max_iters=300, tol=1e-10,
                                      seed=solve_ss)))
        holding += bound.holds
        min_slack = min(min_slack, bound.bound - bound.final_err)

    # exact-structure case: with the merged model solved exactly, the
    # projection residual vanishes and the bound collapses to the
    # third-order residual itself
    truth = gen_random_ktensor((6, 7, 8, 9), 3, seed=314)
    T = reconstruct(truth)
    split = ModeSplit((0, 1, 2, 3), (0, 2, 3, 4))
    Y3 = reduce_modes(T, split)
    merged = KTensor([khatri_rao([truth.factors[0], truth.factors[1]]),
                      truth.factors[2], truth.factors[3]])
    fit3 = np.linalg.norm(Y3 - reconstruct(merged))
    factors01, eps_k = kr_project(merged.factors[0], (6, 7))
    est = normalize(KTensor([factors01[0], factors01[1],
                             truth.factors[2], truth.factors[3]]))
    tight = verify_error_bound(T, est, fit3, eps_k)
    gap = abs(tight.final_err - tight.fit3)
    tight_ok = (eps_k < 1e-10 and tight.holds
                and gap <= 1e-9 * np.linalg.norm(T))

    _verdict(7, "certified error bound",
             holding == 50 and tight_ok,
             f"held {holding}/50 (min slack {min_slack:.2e}), exact case: "
             f"eps {eps_k:.2e}, |final - fit3| {gap:.2e}")


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(262643)
    exact_round_trips = True
    fro_ok = True
    for _ in range(20):
        order = int(rng.integers(3, 6))
        shape = tuple(int(s) for s in rng.integers(2, 7, order))
        T = rng.standard_normal(shape)
        for n in range(order):
            back = tensorize(matricize(T, n), shape, n)
            exact_round_trips &= bool(np.array_equal(back, T))
        perm = tuple(rng.permutation(order).tolist())
        groups = 2 if order == 3 else 3
        inner = sorted(rng.choice(range(1, order), size=groups - 1,
                                  replace=False).tolist())
        split = ModeSplit(perm, tuple([0] + inner + [order]))
        rel = abs(np.linalg.norm(reduce_modes(T, split)) - np.linalg.norm(T))
        fro_ok &= rel <= 1e-12 * np.linalg.norm(T)

    law_ok = True
    worst_law = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 7))
        q = int(rng.integers(2, 7))
        a1, a2 = rng.standard_normal((2, p))
        b1, b2 = rng.standard_normal((2, q))
        merged1 = khatri_rao([a1[:, None], b1[:, None]])[:, 0]
        merged2 = khatri_rao([a2[:, None], b2[:, None]])[:, 0]
        diff = abs(collinearity(merged1, merged2)
                   - collinearity(a1, a2) * collinearity(b1, b2))
        worst_law = max(worst_law, diff)
        law_ok &= diff <= 1e-12
    _verdict(8, "structural invariants",
             exact_round_trips and fro_ok and law_ok,
             f"round trips exact: {exact_round_trips}, norm preserved: "
             f"{fro_ok}, collinearity product law off by {worst_law:.1e}")


def test_criterion_9_cli_determinism(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "cpdkit.cli", "bench", "sim1",
                        "--runs", "3", "--seed", "7", "--out", str(out)],
                       check=True, capture_output=True, text=True)
        with open(out, newline="") as f:
            outs.append(list(csv.reader(f)))
    drop = outs[0][0].index("runtime_s")
    stripped = [[[c for i, c in enumerate(row) if i != drop] for row in run]
                for run in outs]
    same = stripped[0] == stripped[1]
    runtime_cols_differ = any(
        ra[drop] != rb[drop] for ra, rb in zip(outs[0][1:], outs[1][1:]))
    _verdict(9, "benchmark CLI determinism",
             same and len(outs[0]) == 7,
             f"identical apart from runtime: {same} "
             f"({len(outs[0]) - 1} records, runtime column varies: "
             f"{runtime_cols_differ})")
