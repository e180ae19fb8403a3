"""KTensor container, reconstruction (checked against a triple loop),
matching metrics, and the factor file format."""

import struct
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cpdkit import ktensor
from cpdkit.ktensor import (
    KTNS_MAGIC,
    KTensor,
    fit,
    match_factors,
    msir,
    normalize,
    read_ktns,
    reconstruct,
    write_ktns,
)
from cpdkit.linalg import khatri_rao
from cpdkit.tensor import _write_container, matricize


def reconstruct_oracle(kt):
    """Sum of weighted outer products, one entry at a time."""
    out = np.zeros(kt.shape)
    for idx in np.ndindex(*kt.shape):
        for j in range(kt.rank):
            term = kt.weights[j]
            for n, i in enumerate(idx):
                term *= kt.factors[n][i, j]
            out[idx] += term
    return out


def random_ktensor(rng, shape, J, weights=None):
    return KTensor([rng.standard_normal((s, J)) for s in shape], weights)


def test_ktensor_validation():
    with pytest.raises(ValueError):
        KTensor([])
    with pytest.raises(ValueError):
        KTensor([np.zeros(3)])
    with pytest.raises(ValueError):
        KTensor([np.zeros((3, 2)), np.zeros((4, 3))])
    with pytest.raises(ValueError):
        KTensor([np.zeros((3, 2))], weights=np.ones(3))
    with pytest.raises(ValueError):
        KTensor([np.zeros((3, 0))])


def test_ktensor_defaults_and_copies():
    A = np.ones((3, 2))
    kt = KTensor([A])
    assert np.array_equal(kt.weights, [1.0, 1.0])
    A[0, 0] = 99.0                       # constructor must have copied
    assert kt.factors[0][0, 0] == 1.0
    dup = kt.copy()
    dup.factors[0][0, 0] = -5.0
    assert kt.factors[0][0, 0] == 1.0
    assert kt.order == 1 and kt.rank == 2 and kt.shape == (3,)


def test_reconstruct_matches_triple_loop():
    rng = np.random.default_rng(21)
    kt = random_ktensor(rng, (3, 4, 2), 2, weights=rng.uniform(0.5, 2.0, 2))
    assert np.allclose(reconstruct(kt), reconstruct_oracle(kt), atol=1e-12)


def test_reconstruct_order_one():
    kt = KTensor([np.array([[1.0, 2.0], [3.0, 4.0]])], weights=[2.0, 0.5])
    assert np.allclose(reconstruct(kt), [3.0, 8.0])


def test_reconstruct_matricized_consistent():
    rng = np.random.default_rng(22)
    kt = random_ktensor(rng, (4, 3, 5), 3, weights=rng.uniform(0.5, 2.0, 3))
    T = reconstruct(kt)
    for n in range(kt.order):
        others = [kt.factors[p] for p in range(kt.order) if p != n]
        assert np.allclose((kt.factors[n] * kt.weights)
                           @ khatri_rao(others).T, matricize(T, n),
                           atol=1e-12)


@settings(max_examples=60)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       J=st.integers(1, 4), seed=st.integers(0, 2 ** 30))
@example(shape=[30, 30, 2], J=3, seed=0)
@example(shape=[2, 30, 30], J=2, seed=1)
@example(shape=[1, 9, 1, 1, 3], J=2, seed=2)
@example(shape=[1], J=3, seed=3)
def test_reconstruct_properties(shape, J, seed):
    rng = np.random.default_rng(seed)
    kt = random_ktensor(rng, shape, J, weights=rng.uniform(-2.0, 2.0, J))
    T = reconstruct(kt)
    assert T.shape == kt.shape and T.flags.c_contiguous
    scale = 1e-12 * max(1.0, float(np.abs(T).max()))
    assert np.allclose(T, reconstruct_oracle(kt), rtol=0, atol=scale)
    if kt.order == 1:
        return
    for n in range(kt.order):
        others = [kt.factors[p] for p in range(kt.order) if p != n]
        assert np.allclose(matricize(T, n), (kt.factors[n] * kt.weights)
                           @ khatri_rao(others).T, rtol=0, atol=scale)


@pytest.mark.parametrize("shape, biggest", [
    ((40, 40, 2), 80),          # a mode-count split would form 1600 rows
    ((8, 8, 8, 8, 8), 512),
    ((400, 3, 5), 400),
])
def test_reconstruct_forms_only_balanced_halves(monkeypatch, shape, biggest):
    rows = []

    def spy(mats):
        out = khatri_rao(mats)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(ktensor, "khatri_rao", spy)
    kt = random_ktensor(np.random.default_rng(29), shape, 3)
    T = reconstruct(kt)
    assert len(rows) == 2 and max(rows) == biggest
    assert prod(rows) == T.size


def test_normalize():
    rng = np.random.default_rng(23)
    kt = random_ktensor(rng, (4, 5, 3), 2, weights=[2.0, 3.0])
    out = normalize(kt)
    for n in range(out.order - 1):
        assert np.allclose(np.linalg.norm(out.factors[n], axis=0), 1.0)
    assert np.allclose(reconstruct(out), reconstruct(kt), atol=1e-12)

    full = normalize(kt, all_modes=True)
    for A in full.factors:
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0)
    assert np.allclose(reconstruct(full), reconstruct(kt), atol=1e-12)


def test_normalize_zero_column_kills_weight():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.ones((3, 2))
    out = normalize(KTensor([A, B]))
    assert out.weights[1] == 0.0


def test_fit_values():
    ref = np.array([3.0, 4.0])
    assert fit(ref, ref) == 1.0
    assert fit(ref, np.zeros(2)) == 0.0
    assert fit(ref, -ref) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        fit(np.zeros(2), ref)
    with pytest.raises(ValueError):
        fit(ref, np.zeros(3))


def test_match_factors_recovers_permutation_and_scale():
    rng = np.random.default_rng(25)
    ref = rng.standard_normal((10, 4))
    order = [2, 0, 3, 1]
    scale = np.array([0.5, -2.0, 1.5, -0.25])
    est = ref[:, order] * scale
    res = match_factors(ref, est)
    for j in range(4):
        assert order[res.perm[j]] == j
        aligned = res.scales[j] * est[:, res.perm[j]]
        assert np.allclose(aligned, ref[:, j], atol=1e-12)
    assert np.all(res.sir_db >= 299.0)


def match_reference(ref, est):
    """Per-pair matching: the |cosine| of every column pair in a Python
    loop (zero columns score 0), then each matched pair's scale and its SIR
    after z-scoring and sign alignment (NaN when a column is constant)."""
    J = ref.shape[1]
    affinity = np.zeros((J, J))
    for j in range(J):
        for m in range(J):
            u, v = ref[:, j], est[:, m]
            if u.any() and v.any():
                affinity[j, m] = abs(u @ v) / (np.linalg.norm(u)
                                               * np.linalg.norm(v))
    _, perm = linear_sum_assignment(-affinity)
    scales, sir = np.zeros(J), np.full(J, np.nan)
    for j, m in enumerate(perm):
        u, v = ref[:, j], est[:, m]
        if v @ v > 0:
            scales[j] = (u @ v) / (v @ v)
        if np.ptp(u) > 0 and np.ptp(v) > 0:
            zu = (u - u.mean()) / u.std()
            zv = (v - v.mean()) / v.std()
            zv = -zv if zu @ zv < 0 else zv
            num, den = zu @ zu, (zu - zv) @ (zu - zv)
            sir[j] = (300.0 if den <= num * 1e-30
                      else min(300.0, 10.0 * np.log10(num / den)))
    return affinity, perm, scales, sir


@settings(max_examples=80)
@given(data=st.data())
def test_match_factors_matches_per_pair_reference(data):
    I = data.draw(st.integers(2, 9))
    J = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 30)))
    ref = rng.standard_normal((I, J)) * rng.uniform(0.1, 10.0, J)
    est = (ref[:, rng.permutation(J)] * rng.uniform(-3.0, 3.0, J)
           + data.draw(st.sampled_from([0.0, 1e-6, 0.1, 1.0]))
           * rng.standard_normal((I, J)))
    # zero and constant columns, in either factor
    for M in (ref, est):
        kind = data.draw(st.sampled_from(["none", "zero", "constant"]))
        col = data.draw(st.integers(0, J - 1))
        if kind == "zero":
            M[:, col] = 0.0
        elif kind == "constant":
            M[:, col] = 0.1
    res = match_factors(ref, est)
    affinity, perm, scales, sir = match_reference(ref, est)
    assert sorted(res.perm) == list(range(J))
    # pairs with a zero column are tied with every other column
    untied = [j for j in range(J) if affinity[j, perm[j]] > 0]
    assert all(res.perm[j] == perm[j] for j in untied)
    assert np.all(np.abs(res.scales - scales) <= 1e-12 * np.abs(scales))
    assert np.array_equal(np.isnan(res.sir_db), np.isnan(sir))
    done = ~np.isnan(sir)
    assert np.all(np.abs(res.sir_db[done] - sir[done]) <= 1e-6)


def test_match_factors_constant_column_is_nan():
    # 0.1 seven times has a nonzero std in floating point, but is constant
    ref = np.random.default_rng(28).standard_normal((7, 2))
    est = ref.copy()
    est[:, 1] = 0.1
    res = match_factors(ref, est)
    assert res.sir_db[0] == 300.0 and np.isnan(res.sir_db[1])
    with pytest.raises(ValueError, match="constant"):
        msir(ref, est)


def test_match_factors_shape_mismatch():
    with pytest.raises(ValueError):
        match_factors(np.zeros((3, 2)), np.zeros((4, 2)))


def test_msir_exact_copy_hits_cap():
    rng = np.random.default_rng(26)
    A = rng.standard_normal((12, 3))
    assert msir(A, -A) == pytest.approx(300.0)


def test_msir_twenty_db_construction():
    # ref column a (zero mean); estimate a + e with e zero mean,
    # <a, e> = -|e|^2/2 (so the norms match and z-scoring only rescales)
    # and |e|^2 = 0.01 |a|^2, which pins the ratio at exactly 100 -> 20 dB.
    rng = np.random.default_rng(27)
    n = 64
    a = rng.standard_normal(n)
    a -= a.mean()
    e0 = rng.standard_normal(n)
    e0 -= e0.mean()
    e_perp = e0 - (e0 @ a) / (a @ a) * a
    t = 0.01 * (a @ a)
    alpha = -t / (2.0 * (a @ a))
    beta = np.sqrt((t - alpha ** 2 * (a @ a)) / (e_perp @ e_perp))
    e = alpha * a + beta * e_perp
    assert abs((a + e) @ (a + e) - a @ a) < 1e-9 * (a @ a)
    val = msir(a[:, None], (a + e)[:, None])
    assert val == pytest.approx(20.0, abs=1e-6)


def test_msir_rejects_constant_columns():
    with pytest.raises(ValueError):
        msir(np.ones((5, 1)), np.ones((5, 1)))


def test_ktns_round_trip(tmp_path):
    rng = np.random.default_rng(28)
    kt = random_ktensor(rng, (4, 3, 5), 3, weights=rng.uniform(0.5, 2.0, 3))
    p = tmp_path / "f.ktns"
    write_ktns(p, kt)
    back = read_ktns(p)
    assert back.shape == kt.shape and back.rank == kt.rank
    assert np.array_equal(back.weights, kt.weights)
    for A, B in zip(back.factors, kt.factors):
        assert np.array_equal(A, B)


def test_read_ktns_holds_one_copy(tmp_path):
    # the factors view the payload array the reader allocated
    rng = np.random.default_rng(29)
    kt = KTensor([rng.standard_normal((2000, 50)) for _ in range(4)],
                 rng.uniform(0.5, 2.0, 50))
    p = tmp_path / "f.ktns"
    write_ktns(p, kt)
    payload = 8 * (50 + 4 * 2000 * 50)
    tracemalloc.start()
    try:
        back = read_ktns(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * payload
    for A, B in zip(back.factors, kt.factors):
        assert np.array_equal(A, B)


def test_ktns_write_side_bytes(tmp_path):
    # the writer's bytes, pinned against a hand-packed layout; a C-ordered
    # and an F-ordered factor are both written column-major
    rng = np.random.default_rng(30)
    kt = KTensor([rng.standard_normal((4, 2)), rng.standard_normal((3, 2))],
                 rng.uniform(0.5, 2.0, 2))
    kt.factors[1] = rng.standard_normal((2, 3)).T
    p = tmp_path / "f.ktns"
    write_ktns(p, kt)
    assert p.read_bytes() == (
        KTNS_MAGIC + struct.pack("<BII2Q", 1, 2, 2, 4, 3)
        + struct.pack("<2d", *kt.weights)
        + struct.pack("<8d", *kt.factors[0].T.ravel())
        + struct.pack("<6d", *kt.factors[1].T.ravel()))
    back = read_ktns(p)
    assert back.weights.tobytes() == kt.weights.tobytes()
    for A, B in zip(back.factors, kt.factors):
        assert A.tobytes(order="F") == B.tobytes(order="F")


def test_ktns_rejects_corruption(tmp_path):
    kt = KTensor([np.arange(6.0).reshape(3, 2), np.ones((2, 2))])
    good = tmp_path / "good.ktns"
    write_ktns(good, kt)
    raw = good.read_bytes()

    bad_magic = tmp_path / "m.ktns"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="bad magic"):
        read_ktns(bad_magic)

    bad_version = tmp_path / "v.ktns"
    bad_version.write_bytes(raw[:4] + b"\x07" + raw[5:])
    with pytest.raises(ValueError, match="version"):
        read_ktns(bad_version)

    short = tmp_path / "s.ktns"
    short.write_bytes(raw[:-8])    # drop one float, keeping 8-byte alignment
    with pytest.raises(ValueError, match="truncated"):
        read_ktns(short)

    padded = tmp_path / "p.ktns"
    padded.write_bytes(raw + b"\xff")
    with pytest.raises(ValueError, match="trailing"):
        read_ktns(padded)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["weights", "factor"])
def test_ktns_rejects_non_finite(tmp_path, bad, where):
    # write_ktns refuses before it opens the file; a file written past it
    # is refused by read_ktns, naming the file
    kt = KTensor([np.ones((3, 2)), np.ones((4, 2))])
    if where == "weights":
        kt.weights[1] = bad
    else:
        kt.factors[1][2, 0] = bad
    p = tmp_path / "bad.ktns"
    with pytest.raises(ValueError, match="^kt has NaN or Inf"):
        write_ktns(p, kt)
    assert not p.exists()
    _write_container(p, KTNS_MAGIC, (kt.order, kt.rank), kt.shape,
                     (kt.weights, *kt.factors))
    with pytest.raises(ValueError, match="bad.ktns: .*NaN or Inf"):
        read_ktns(p)


@pytest.mark.parametrize("order, rank, shape", [
    (2, 2 ** 32 - 1, (2 ** 31, 2 ** 31)),
    (2, 1000, (1 << 20, 1 << 20)),
    (2, 2, (3, 4)),
])
def test_ktns_rejects_forged_sizes(tmp_path, order, rank, shape):
    p = tmp_path / "forged.ktns"
    p.write_bytes(KTNS_MAGIC + struct.pack("<BII", 1, order, rank)
                  + struct.pack(f"<{order}Q", *shape)
                  + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError, match="truncated"):
        read_ktns(p)


def test_ktns_rejects_short_header(tmp_path):
    p = tmp_path / "stub.ktns"
    p.write_bytes(KTNS_MAGIC + b"\x01\x02")
    with pytest.raises(ValueError, match="truncated"):
        read_ktns(p)
    p.write_bytes(KTNS_MAGIC + struct.pack("<BII", 1, 2 ** 32 - 1, 3))
    with pytest.raises(ValueError, match="mode sizes"):
        read_ktns(p)
