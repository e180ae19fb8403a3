"""KTensor container, reconstruction (checked against a triple loop),
matching metrics, and the factor file format."""

import struct

import numpy as np
import pytest

from cpdkit.ktensor import (
    KTNS_MAGIC,
    KTensor,
    fit,
    match_factors,
    msir,
    normalize,
    read_ktns,
    reconstruct,
    reconstruct_matricized,
    write_ktns,
)


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
    from cpdkit.tensor import matricize
    T = reconstruct(kt)
    for n in range(kt.order):
        assert np.allclose(reconstruct_matricized(kt, n), matricize(T, n),
                           atol=1e-12)
    with pytest.raises(ValueError):
        reconstruct_matricized(kt, 3)


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
