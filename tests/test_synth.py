"""Synthetic problem generators and calibrated noise."""

import numpy as np
import pytest

from cpdkit.ktensor import reconstruct
from cpdkit.synth import add_noise, gen_bottleneck_ktensor, gen_random_ktensor
from cpdkit.uniqueness import collinearity


def test_gen_random_shapes_and_determinism():
    kt = gen_random_ktensor((4, 5, 6), 3, seed=101)
    assert kt.shape == (4, 5, 6)
    assert kt.rank == 3
    assert np.array_equal(kt.weights, np.ones(3))
    again = gen_random_ktensor((4, 5, 6), 3, seed=101)
    for A, B in zip(kt.factors, again.factors):
        assert np.array_equal(A, B)
    other = gen_random_ktensor((4, 5, 6), 3, seed=102)
    assert not np.array_equal(kt.factors[0], other.factors[0])


def test_gen_random_entries_look_standard_normal():
    kt = gen_random_ktensor((2000, 3), 2, seed=103)
    A = kt.factors[0]
    assert abs(A.mean()) < 0.1
    assert abs(A.std() - 1.0) < 0.1


def test_gen_random_validation():
    with pytest.raises(ValueError):
        gen_random_ktensor((4, 5), 0)
    with pytest.raises(ValueError):
        gen_random_ktensor((4,), 2)
    with pytest.raises(ValueError):
        gen_random_ktensor((4, 0), 2)


def test_bottleneck_structure():
    kt = gen_bottleneck_ktensor(30, 5, seed=104)
    assert kt.order == 5
    assert kt.shape == (30,) * 5
    assert kt.rank == 5
    # the first two modes are random walks with strongly correlated
    # neighboring columns
    for n in (0, 1):
        A = kt.factors[n]
        rho = max(collinearity(A[:, j], A[:, j + 1]) for j in range(4))
        assert rho > 0.9
    # modes 2 and 3 are same-frequency sines, phase-shifted a tiny amount
    # per column, so every neighboring pair there is nearly collinear too
    for n in (2, 3):
        A = kt.factors[n]
        for j in range(4):
            assert collinearity(A[:, j], A[:, j + 1]) > 0.97


def test_bottleneck_sine_values():
    kt = gen_bottleneck_ktensor(50, 5, seed=105)
    # at t=0 column j of mode 2 is sin((j+1) pi / 50); mode 3 shifts by 5
    for j in range(5):
        assert kt.factors[2][0, j] == pytest.approx(np.sin((j + 1) * np.pi / 50),
                                                    abs=1e-12)
        assert kt.factors[3][0, j] == pytest.approx(np.sin((j + 6) * np.pi / 50),
                                                    abs=1e-12)
    assert kt.factors[2][0, 0] == pytest.approx(0.06279051952931337, abs=1e-12)


def test_bottleneck_determinism_and_validation():
    a = gen_bottleneck_ktensor(20, 5, seed=106)
    b = gen_bottleneck_ktensor(20, 5, seed=106)
    for A, B in zip(a.factors, b.factors):
        assert np.array_equal(A, B)
    with pytest.raises(ValueError):
        gen_bottleneck_ktensor(20, 1)
    with pytest.raises(ValueError):
        gen_bottleneck_ktensor(2, 5)


def test_bottleneck_seed_sequence_repeats_and_generator_seeds():
    want = gen_bottleneck_ktensor(20, 5, seed=109)
    ss = np.random.SeedSequence(109)
    again = [gen_bottleneck_ktensor(20, 5, ss) for _ in range(2)]
    assert ss.n_children_spawned == 0
    # a fresh Generator draws from the children of its own SeedSequence
    again.append(gen_bottleneck_ktensor(20, 5, np.random.default_rng(109)))
    for kt in again:
        for A, B in zip(kt.factors, want.factors):
            assert np.array_equal(A, B)


def test_add_noise_exact_snr():
    T = reconstruct(gen_random_ktensor((6, 7, 8), 2, seed=107))
    for snr in (0.0, 10.0, 20.0, 40.0):
        Y = add_noise(T, snr, seed=1)
        measured = 20.0 * np.log10(np.linalg.norm(T.ravel())
                                   / np.linalg.norm((Y - T).ravel()))
        assert measured == pytest.approx(snr, abs=1e-10)


def test_add_noise_none_and_determinism():
    T = reconstruct(gen_random_ktensor((4, 5, 6), 2, seed=108))
    clean = add_noise(T, None)
    assert np.array_equal(clean, T)
    assert clean is not T
    a = add_noise(T, 15.0, seed=3)
    b = add_noise(T, 15.0, seed=3)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        add_noise(np.zeros((3, 3)), 10.0)
