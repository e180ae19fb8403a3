"""Layout tests: every reshape here is checked against an index-map oracle
so a silent switch to C-order raveling cannot pass."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdkit.tensor import (
    ModeSplit,
    TNSR_MAGIC,
    matricize,
    read_tnsr,
    reduce_modes,
    tensorize,
    write_tnsr,
)


def matricize_oracle(T, n):
    """Entry-by-entry mode-n unfolding: column index counts the remaining
    modes with the lowest-numbered one fastest."""
    rest = [m for m in range(T.ndim) if m != n]
    out = np.zeros((T.shape[n], int(np.prod([T.shape[m] for m in rest]))))
    for idx in np.ndindex(*T.shape):
        col = 0
        stride = 1
        for m in rest:
            col += idx[m] * stride
            stride *= T.shape[m]
        out[idx[n], col] = T[idx]
    return out


def test_matricize_known_cube():
    T = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
    assert np.array_equal(matricize(T, 0), [[1, 3, 5, 7], [2, 4, 6, 8]])
    assert np.array_equal(matricize(T, 1), [[1, 2, 5, 6], [3, 4, 7, 8]])
    assert np.array_equal(matricize(T, 2), [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_matricize_matches_index_oracle():
    rng = np.random.default_rng(42)
    T = rng.standard_normal((3, 4, 2, 5))
    for n in range(T.ndim):
        assert np.array_equal(matricize(T, n), matricize_oracle(T, n))


def test_matricize_mode_out_of_range():
    T = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        matricize(T, 3)
    with pytest.raises(ValueError):
        matricize(T, -1)


def test_tensorize_inverts_matricize_bit_exact():
    rng = np.random.default_rng(7)
    T = rng.standard_normal((4, 3, 5, 2))
    for n in range(T.ndim):
        back = tensorize(matricize(T, n), T.shape, n)
        assert np.array_equal(back, T)


def test_tensorize_rejects_wrong_shape():
    with pytest.raises(ValueError):
        tensorize(np.zeros((3, 9)), (3, 3, 4), 0)
    with pytest.raises(ValueError):
        tensorize(np.zeros((3, 12)), (3, 3, 4), 5)


def test_mode_split_validation():
    with pytest.raises(ValueError):
        ModeSplit((0, 0, 1), (0, 1, 3))
    with pytest.raises(ValueError):
        ModeSplit((0, 1, 2), (0, 3))          # only one group
    with pytest.raises(ValueError):
        ModeSplit((0, 1, 2), (1, 2, 3))       # must start at 0
    with pytest.raises(ValueError):
        ModeSplit((0, 1, 2), (0, 2, 2, 3))    # not strictly increasing


def test_mode_split_groups_and_sizes():
    split = ModeSplit((0, 1, 2, 3, 4), (0, 1, 3, 5))
    assert split.num_groups == 3
    assert split.group_modes() == [(0,), (1, 2), (3, 4)]
    assert split.group_sizes((2, 3, 4, 5, 6)) == (2, 12, 30)


def test_reduce_modes_preserves_entries():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((3, 4, 2, 5, 2))
    split = ModeSplit((1, 2, 3, 4, 0), (0, 2, 4, 5))
    Y = reduce_modes(T, split)
    assert Y.shape == (8, 10, 3)
    # entries untouched: canonical vectorizations agree after the permutation
    assert np.array_equal(Y.ravel(order="F"),
                          np.transpose(T, split.perm).ravel(order="F"))
    assert np.linalg.norm(Y) == pytest.approx(np.linalg.norm(T), rel=1e-15)


def test_reduce_modes_singleton_groups_is_transpose():
    rng = np.random.default_rng(4)
    T = rng.standard_normal((2, 3, 4))
    split = ModeSplit((2, 0, 1), (0, 1, 2, 3))
    assert np.array_equal(reduce_modes(T, split), np.transpose(T, (2, 0, 1)))


def test_reduce_modes_merged_index_layout():
    # merged index runs over the group's modes with the first listed fastest
    T = np.arange(24.0).reshape((2, 3, 4), order="F")
    Y = reduce_modes(T, ModeSplit((0, 1, 2), (0, 2, 3)))
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert Y[i + 2 * j, k] == T[i, j, k]


def test_reduce_modes_rejects_wrong_order():
    with pytest.raises(ValueError):
        reduce_modes(np.zeros((2, 2, 2)), ModeSplit((0, 1, 2, 3), (0, 2, 4)))


def test_tnsr_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    for shape in [(4,), (3, 5), (2, 3, 4, 2)]:
        T = rng.standard_normal(shape)
        p = tmp_path / "t.tnsr"
        write_tnsr(p, T)
        back = read_tnsr(p)
        assert back.shape == T.shape
        assert np.array_equal(back, T)


def test_tnsr_byte_layout(tmp_path):
    # hand-built file: magic, version 1, order 1, size 2, entries 1.5 / -2.0
    p = tmp_path / "hand.tnsr"
    p.write_bytes(TNSR_MAGIC + struct.pack("<BIQ", 1, 1, 2)
                  + struct.pack("<2d", 1.5, -2.0))
    assert np.array_equal(read_tnsr(p), [1.5, -2.0])


def layout(kind, shape, seed=0):
    """One tensor of ``shape`` in C order, F order, or as a strided view."""
    rng = np.random.default_rng(seed)
    if kind == "strided":
        return rng.standard_normal((2 * shape[0],) + shape[1:])[::2]
    T = rng.standard_normal(shape)
    return np.asfortranarray(T) if kind == "F" else T


@pytest.mark.parametrize("kind", ["C", "F", "strided"])
def test_tnsr_write_side_bytes(tmp_path, kind):
    # the writer's bytes, pinned against a hand-packed header and payload
    T = layout(kind, (3, 4, 2, 5))
    p = tmp_path / "t.tnsr"
    write_tnsr(p, T)
    assert p.read_bytes() == (TNSR_MAGIC + struct.pack("<BI4Q", 1, 4, *T.shape)
                              + np.ravel(T, order="F").astype("<f8").tobytes())
    back = read_tnsr(p)
    assert back.dtype == np.float64 and back.shape == T.shape
    assert back.flags.f_contiguous and back.flags.writeable
    assert back.tobytes(order="F") == T.tobytes(order="F")


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["C", "F", "strided"])
def test_tnsr_io_holds_one_copy(tmp_path, kind):
    # a writer copies the payload at most once, a reader reads the file
    # straight into the array it returns
    T = layout(kind, (12,) * 5)
    p = tmp_path / "t.tnsr"
    assert traced_peak(lambda: write_tnsr(p, T)) <= 1.1 * T.nbytes
    assert traced_peak(lambda: read_tnsr(p)) <= 1.1 * T.nbytes


def test_tnsr_rejects_corruption(tmp_path):
    T = np.arange(6.0).reshape(2, 3)
    good = tmp_path / "good.tnsr"
    write_tnsr(good, T)
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.tnsr"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="bad magic"):
        read_tnsr(bad_magic)

    bad_version = tmp_path / "version.tnsr"
    bad_version.write_bytes(raw[:4] + b"\x02" + raw[5:])
    with pytest.raises(ValueError, match="version"):
        read_tnsr(bad_version)

    truncated = tmp_path / "short.tnsr"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_tnsr(truncated)

    padded = tmp_path / "long.tnsr"
    padded.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_tnsr(padded)


@pytest.mark.parametrize("shape", [(2 ** 31, 2 ** 31), (1 << 20, 1 << 20),
                                   (3, 3)])
def test_tnsr_rejects_forged_sizes(tmp_path, shape):
    # the header claims more entries than the file holds: rejected before
    # any allocation, whatever the claim
    p = tmp_path / "forged.tnsr"
    p.write_bytes(TNSR_MAGIC + struct.pack("<BI", 1, len(shape))
                  + struct.pack(f"<{len(shape)}Q", *shape)
                  + struct.pack("<2d", 1.0, 2.0))
    with pytest.raises(ValueError, match="truncated"):
        read_tnsr(p)


def test_tnsr_rejects_short_header(tmp_path):
    p = tmp_path / "stub.tnsr"
    p.write_bytes(TNSR_MAGIC + b"\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_tnsr(p)
    p.write_bytes(TNSR_MAGIC + struct.pack("<BI", 1, 2 ** 32 - 1))
    with pytest.raises(ValueError, match="mode sizes"):
        read_tnsr(p)


def random_tensor(data, min_order, max_order):
    shape = data.draw(st.lists(st.integers(1, 4), min_size=min_order,
                               max_size=max_order))
    seed = data.draw(st.integers(0, 2 ** 30))
    return np.random.default_rng(seed).standard_normal(shape)


@settings(max_examples=40)
@given(data=st.data())
def test_tensorize_inverts_matricize_property(data):
    T = random_tensor(data, 1, 5)
    n = data.draw(st.integers(0, T.ndim - 1))
    assert np.array_equal(tensorize(matricize(T, n), T.shape, n), T)


@settings(max_examples=40)
@given(data=st.data())
def test_reduce_modes_is_a_transpose_property(data):
    T = random_tensor(data, 2, 5)
    N = T.ndim
    perm = data.draw(st.permutations(range(N)))
    inner = data.draw(st.sets(st.integers(1, N - 1), min_size=1))
    split = ModeSplit(perm, (0, *sorted(inner), N))
    assert np.array_equal(reduce_modes(T, split).ravel(order="F"),
                          np.transpose(T, split.perm).ravel(order="F"))
