"""The input contract of the public surface.

Every name in ``cpdkit.__all__`` that takes input rejects a malformed
argument with a one-line ``ValueError`` that names the parameter: a
fractional float, a ``bool``, a string, ``None``, a complex or NaN value,
a negative count or a tuple of the wrong length, as each parameter has it.
A public name with no case below fails
:func:`test_every_public_name_has_a_case`, so new surface is covered when
it lands.
"""

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpdkit as c
from cpdkit.linalg import _as_array

# Output types: cpdkit builds them, callers only read them.
NO_INPUTS = {"BoundReport", "MatchResult", "RunRecord", "SolveReport",
             "UniquenessReport"}

RNG = np.random.default_rng(0)
A, B = RNG.standard_normal((4, 2)), RNG.standard_normal((5, 2))
H = c.khatri_rao([A, B])
T3 = RNG.standard_normal((4, 3, 5))
T4 = RNG.standard_normal((4, 3, 5, 2))
KT = c.normalize(c.KTensor([RNG.standard_normal((s, 2)) for s in T4.shape]))
SPLIT = c.ModeSplit((0, 1, 2, 3), (0, 1, 2, 4))
RECORDS = [c.RunRecord("als", 0, 0.99, 0.99, 30.0, 0.1, True)]
BAD_FILES = tempfile.TemporaryDirectory()

# Malformed values, by the kind of parameter they are malformed for.
NOT_INT = st.one_of(st.floats(), st.booleans(), st.text(max_size=3),
                    st.none(), st.complex_numbers())
COUNT = st.one_of(NOT_INT, st.integers(max_value=-1))
NOT_REAL = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                     st.booleans(), st.text(max_size=3),
                     st.complex_numbers())
NONNEG_REAL = st.one_of(NOT_REAL, st.none(),
                        st.floats(max_value=-1e-12, allow_infinity=False))
WRONG_TYPE = st.one_of(st.text(max_size=3), st.integers(), st.floats())
NOT_AN_OPTION = st.one_of(st.none(), WRONG_TYPE)


def other_text(*valid):
    """Short strings other than the ``valid`` ones."""
    return st.text(max_size=5).filter(lambda v: v not in valid)


def not_array(X):
    """Stand-ins for the array ``X`` that are not real numbers."""
    return st.one_of(st.none(), st.text(max_size=3),
                     st.sampled_from([X * 1j, X + 0j, X.astype(object)]))


def with_nan(X):
    """``X`` with one NaN or Inf entry."""
    def poke(value):
        Y = X.copy()
        Y.flat[0] = value
        return Y
    return st.sampled_from([math.nan, math.inf, -math.inf]).map(poke)


def counts(low, size, length=None):
    """Integer sequences that break ``low``, ``size`` (a minimum length) or
    an exact ``length``, or that hold a non-integer."""
    fine = st.integers(max(low, 1), 9)
    short = st.lists(fine, max_size=size - 1) if size > 1 else st.nothing()
    below = st.lists(st.integers(-9, low - 1), min_size=size, max_size=size)
    wrong_len = (st.lists(fine, min_size=length + 1, max_size=length + 3)
                 if length else st.nothing())
    non_int = st.lists(NOT_INT, min_size=size, max_size=size + 2)
    return st.one_of(short, below, wrong_len, non_int, st.none(),
                     st.integers(), st.text(min_size=1, max_size=3))


def read_bytes(reader, suffix):
    def call(payload):
        path = Path(BAD_FILES.name) / f"bad{suffix}"
        path.write_bytes(payload)
        return reader(path)
    return call


@dataclass(frozen=True)
class Case:
    name: str            # public name
    word: str            # what the message must name
    bad: object          # strategy of malformed values
    call: object         # runs ``name`` with one malformed value

    def __str__(self):
        return f"{self.name}-{self.word}"


def cfg(**bad):
    fields = dict(name="sim1", shape=(6, 6, 6, 6), rank=2, snr_db=30.0,
                  runs=1, seed=5)
    return c.BenchConfig(**{**fields, **bad})


CASES = [
    Case("BenchConfig", "name", st.one_of(other_text("sim1", "sim2"),
                                          st.none()),
         lambda v: cfg(name=v)),
    Case("BenchConfig", "mode sizes", counts(3, 2), lambda v: cfg(shape=v)),
    Case("BenchConfig", "rank", COUNT, lambda v: cfg(rank=v)),
    Case("BenchConfig", "snr_db", NOT_REAL, lambda v: cfg(snr_db=v)),
    Case("BenchConfig", "runs", COUNT, lambda v: cfg(runs=v)),
    Case("BenchConfig", "seed", COUNT, lambda v: cfg(seed=v)),
    Case("Compression", "kind",
         st.one_of(other_text("svd"), st.none(), st.integers()),
         lambda v: c.Compression(v)),
    Case("KTensor", "factors", not_array(A), lambda v: c.KTensor([A, v])),
    Case("KTensor", "weights",
         st.one_of(not_array(np.ones(2)).filter(lambda v: v is not None),
                   st.lists(st.floats(0, 1), min_size=3, max_size=5)),
         lambda v: c.KTensor([A, B], v)),
    Case("ModeSplit", "perm",
         st.one_of(counts(0, 4), st.just((0, 1, 1, 3))),
         lambda v: c.ModeSplit(v, (0, 1, 2, 4))),
    Case("ModeSplit", "boundaries",
         st.one_of(counts(0, 3), st.just((0, 2, 1, 4))),
         lambda v: c.ModeSplit((0, 1, 2, 3), v)),
    Case("MrcpdOptions", "split", WRONG_TYPE,
         lambda v: c.MrcpdOptions(split=v)),
    Case("MrcpdOptions", "solver_opts", NOT_AN_OPTION,
         lambda v: c.MrcpdOptions(solver_opts=v)),
    Case("MrcpdOptions", "compression", NOT_AN_OPTION,
         lambda v: c.MrcpdOptions(compression=v)),
    Case("MrcpdOptions", "restarts", COUNT,
         lambda v: c.MrcpdOptions(restarts=v)),
    Case("SolverOptions", "max_iters", COUNT,
         lambda v: c.SolverOptions(max_iters=v)),
    Case("SolverOptions", "tol", NONNEG_REAL,
         lambda v: c.SolverOptions(tol=v)),
    Case("SolverOptions", "init", WRONG_TYPE,
         lambda v: c.SolverOptions(init=v)),
    Case("add_noise", "T", not_array(T3), lambda v: c.add_noise(v, 10.0)),
    Case("add_noise", "snr_db", NOT_REAL, lambda v: c.add_noise(T3, v)),
    Case("check_unfolded_uniqueness", "kranks", counts(1, 4, 4),
         lambda v: c.check_unfolded_uniqueness(v, 2, SPLIT)),
    Case("check_unfolded_uniqueness", "rank", COUNT,
         lambda v: c.check_unfolded_uniqueness((3, 3, 3, 3), v, SPLIT)),
    Case("check_unfolded_uniqueness", "split", NOT_AN_OPTION,
         lambda v: c.check_unfolded_uniqueness((3, 3, 3, 3), 2, v)),
    Case("collinearity", "u", not_array(A[:, 0]),
         lambda v: c.collinearity(v, A[:, 1])),
    Case("collinearity", "v", st.integers(1, 9).filter(lambda n: n != 4),
         lambda v: c.collinearity(A[:, 0], np.ones(v))),
    Case("compress_mode", "T3", not_array(T3),
         lambda v: c.compress_mode(v, 0, 2)),
    Case("compress_mode", "mode", st.one_of(COUNT, st.integers(3, 9)),
         lambda v: c.compress_mode(T3, v, 2)),
    Case("compress_mode", "width", COUNT,
         lambda v: c.compress_mode(T3, 0, v)),
    Case("cp_als", "T",
         st.one_of(not_array(T3), with_nan(T3), st.just(T3[:, 0, 0])),
         lambda v: c.cp_als(v, 2)),
    Case("cp_als", "rank", COUNT, lambda v: c.cp_als(T3, v)),
    Case("cp_als", "opts", WRONG_TYPE,
         lambda v: c.cp_als(T3, 2, v)),
    Case("fit", "ref", not_array(T3), lambda v: c.fit(v, T3)),
    Case("fit", "est", not_array(T3), lambda v: c.fit(T3, v)),
    Case("gcr", "threshold", NOT_REAL, lambda v: c.gcr(RECORDS, v, "als")),
    Case("gen_bottleneck_ktensor", "mode size", COUNT,
         lambda v: c.gen_bottleneck_ktensor(v, 2)),
    Case("gen_bottleneck_ktensor", "rank", COUNT,
         lambda v: c.gen_bottleneck_ktensor(5, v)),
    Case("gen_random_ktensor", "shape", counts(1, 2),
         lambda v: c.gen_random_ktensor(v, 2)),
    Case("gen_random_ktensor", "rank", COUNT,
         lambda v: c.gen_random_ktensor((4, 3), v)),
    Case("hadamard", "matrices", not_array(A), lambda v: c.hadamard([A, v])),
    Case("khatri_rao", "matrices", not_array(A),
         lambda v: c.khatri_rao([A, v])),
    Case("kr_project", "H", st.one_of(not_array(H), with_nan(H)),
         lambda v: c.kr_project(v, (4, 5))),
    Case("kr_project", "mode sizes", counts(1, 2),
         lambda v: c.kr_project(H, v)),
    Case("krank_product_bound", "kranks", counts(1, 1),
         lambda v: c.krank_product_bound(v, 3)),
    Case("krank_product_bound", "rank", COUNT,
         lambda v: c.krank_product_bound((2, 2), v)),
    Case("kruskal_rank", "M", not_array(A), lambda v: c.kruskal_rank(v)),
    Case("ksb_check", "kranks", counts(0, 2),
         lambda v: c.ksb_check(v, 2)),
    Case("ksb_check", "rank", COUNT, lambda v: c.ksb_check((3, 3, 3), v)),
    Case("match_factors", "ref", not_array(A),
         lambda v: c.match_factors(v, A)),
    Case("match_factors", "est", not_array(A),
         lambda v: c.match_factors(A, v)),
    Case("matricize", "T", not_array(T3), lambda v: c.matricize(v, 0)),
    Case("matricize", "mode", st.one_of(COUNT, st.integers(3, 9)),
         lambda v: c.matricize(T3, v)),
    Case("mode_rank", "T", not_array(T3), lambda v: c.mode_rank(v, 0)),
    Case("mode_rank", "mode", st.one_of(COUNT, st.integers(3, 9)),
         lambda v: c.mode_rank(T3, v)),
    Case("mode_rank", "cap", st.one_of(COUNT.filter(lambda v: v is not None),
                                       st.just(0)),
         lambda v: c.mode_rank(T3, 0, cap=v)),
    Case("mrcpd_decompose", "T",
         st.one_of(not_array(T4), with_nan(T4), st.just(T3)),
         lambda v: c.mrcpd_decompose(v, 2)),
    Case("mrcpd_decompose", "rank", COUNT,
         lambda v: c.mrcpd_decompose(T4, v)),
    Case("mrcpd_decompose", "opts",
         WRONG_TYPE,
         lambda v: c.mrcpd_decompose(T4, 2, v)),
    Case("msir", "ref", not_array(A), lambda v: c.msir(v, A)),
    Case("msir", "est", not_array(A), lambda v: c.msir(A, v)),
    Case("normalize", "kt", NOT_AN_OPTION, lambda v: c.normalize(v)),
    Case("plan_unfolding", "kranks", counts(1, 4),
         lambda v: c.plan_unfolding(v, 3)),
    Case("plan_unfolding", "rank", COUNT,
         lambda v: c.plan_unfolding((3, 3, 3, 3), v)),
    Case("read_ktns", "bad.ktns", st.binary(max_size=16),
         read_bytes(c.read_ktns, ".ktns")),
    Case("read_tnsr", "bad.tnsr", st.binary(max_size=16),
         read_bytes(c.read_tnsr, ".tnsr")),
    Case("reconstruct", "kt", NOT_AN_OPTION, lambda v: c.reconstruct(v)),
    Case("recover_merged_factor", "Y3", not_array(T3),
         lambda v: c.recover_merged_factor(v, 1, [A, B])),
    Case("recover_merged_factor", "group",
         st.one_of(COUNT, st.integers(3, 9)),
         lambda v: c.recover_merged_factor(T3, v, [A, B])),
    Case("recover_merged_factor", "known factor",
         st.one_of(not_array(B), with_nan(B)),
         lambda v: c.recover_merged_factor(T3, 1, [A, v])),
    Case("reduce_modes", "T", not_array(T4),
         lambda v: c.reduce_modes(v, SPLIT)),
    Case("reduce_modes", "split", NOT_AN_OPTION,
         lambda v: c.reduce_modes(T4, v)),
    Case("run_benchmark", "cfg", NOT_AN_OPTION, lambda v: c.run_benchmark(v)),
    Case("sim1_config", "runs", COUNT, lambda v: c.sim1_config(v, 0)),
    Case("sim1_config", "seed", COUNT, lambda v: c.sim1_config(1, v)),
    Case("sim1_config", "mode sizes", st.one_of(COUNT, st.integers(-9, 2)),
         lambda v: c.sim1_config(1, 0, v)),
    Case("sim2_config", "runs", COUNT, lambda v: c.sim2_config(v, 0)),
    Case("sim2_config", "seed", COUNT, lambda v: c.sim2_config(1, v)),
    Case("sim2_config", "mode sizes", st.one_of(COUNT, st.integers(-9, 2)),
         lambda v: c.sim2_config(1, 0, v)),
    Case("summarize", "threshold", NOT_REAL,
         lambda v: c.summarize(RECORDS, v)),
    Case("tensorize", "M", not_array(T3[:, :, 0]),
         lambda v: c.tensorize(v, (4, 3), 0)),
    Case("tensorize", "shape", counts(0, 1),
         lambda v: c.tensorize(T3[:, :, 0], v, 0)),
    Case("tensorize", "mode", st.one_of(COUNT, st.integers(2, 9)),
         lambda v: c.tensorize(T3[:, :, 0], (4, 3), v)),
    Case("verify_error_bound", "T", not_array(T4),
         lambda v: c.verify_error_bound(v, KT, 1.0, 0.0)),
    Case("verify_error_bound", "est", NOT_AN_OPTION,
         lambda v: c.verify_error_bound(T4, v, 1.0, 0.0)),
    Case("verify_error_bound", "fit3", NONNEG_REAL,
         lambda v: c.verify_error_bound(T4, KT, v, 0.0)),
    Case("verify_error_bound", "eps_k", NONNEG_REAL,
         lambda v: c.verify_error_bound(T4, KT, 1.0, v)),
    Case("write_csv", "records", NOT_AN_OPTION,
         lambda v: c.write_csv(RECORDS + [v], os.devnull)),
    Case("write_ktns", "kt", NOT_AN_OPTION,
         lambda v: c.write_ktns(os.devnull, v)),
    Case("write_tnsr", "T", not_array(T3),
         lambda v: c.write_tnsr(os.devnull, v)),
]

# Names whose errors are pinned to another type.
OTHER_ERRORS = {"get_solver", "register_solver"}


def test_every_public_name_has_a_case():
    covered = {case.name for case in CASES} | NO_INPUTS | OTHER_ERRORS
    assert sorted(set(c.__all__) - covered) == []
    assert sorted(covered - set(c.__all__)) == []


@pytest.mark.parametrize("case", CASES, ids=str)
@settings(max_examples=25)
@given(data=st.data())
def test_malformed_argument_is_one_line_value_error(case, data):
    bad = data.draw(case.bad, label=case.word)
    with pytest.raises(ValueError) as err:
        case.call(bad)
    message = str(err.value)
    assert "\n" not in message
    assert case.word in message


def test_registry_keeps_its_error_types():
    with pytest.raises(TypeError, match="solver must be callable"):
        c.register_solver("als", None)
    with pytest.raises(KeyError, match="no solver registered under 'nope'"):
        c.get_solver("nope")


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_a_bool_is_not_a_count(flag):
    # Python counts True as 1; cpdkit does not, so rank=True cannot run a
    # rank-1 decomposition by accident
    for call in (lambda: c.cp_als(T3, flag),
                 lambda: c.SolverOptions(max_iters=flag),
                 lambda: c.matricize(T3, flag),
                 lambda: c.ModeSplit((0, flag, 2, 3), (0, 1, 2, 4))):
        with pytest.raises(ValueError, match="integer"):
            call()


def test_numpy_scalars_are_counts_and_reals():
    opts = c.SolverOptions(max_iters=np.int32(3), tol=np.float32(1e-3))
    assert type(opts.max_iters) is int and type(opts.tol) is float
    kt, rep = c.cp_als(T3, np.int64(2), opts)
    assert kt.rank == 2 and rep.iterations <= 3
    assert c.matricize(T3, np.uint8(2)).shape == (5, 12)
    assert c.ModeSplit(np.arange(4), np.array([0, 1, 2, 4])).perm == (
        0, 1, 2, 3)


def test_array_rule_neither_copies_nor_scans_float64():
    # a float64 array comes back as itself, in either memory order, and
    # NaN passes: finite checks belong to the callers that need them
    F = np.asfortranarray(T3)
    assert _as_array(T3, "T") is T3 and _as_array(F, "T") is F
    assert np.isnan(_as_array(np.array([np.nan]), "T")).all()
    assert _as_array(T3.astype(np.float32), "T").dtype == np.float64


@pytest.mark.parametrize("field, value, word", [
    ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
    ("max_iters", 0, "max_iters must be >= 1, got 0"),
    ("tol", "x", "tol must be a finite real number"),
    ("init", "kt", "init must be a KTensor, got"),
])
def test_solver_options_set_later_are_checked_where_used(field, value, word):
    opts = c.SolverOptions(max_iters=5)
    setattr(opts, field, value)
    with pytest.raises(ValueError, match=word):
        c.cp_als(T3, 2, opts)
    mopts = c.MrcpdOptions()
    setattr(mopts.solver_opts, field, value)
    with pytest.raises(ValueError, match=word):
        c.mrcpd_decompose(T4, 2, mopts)


@pytest.mark.parametrize("field, value, word", [
    ("split", "1|2|3,4", "split must be a ModeSplit, got"),
    ("solver_opts", None, "solver_opts must be a SolverOptions, got None"),
    ("restarts", 0, "restarts must be >= 1, got 0"),
    ("compression", None, "compression is always on"),
])
def test_mrcpd_options_set_later_are_checked_where_used(field, value, word):
    opts = c.MrcpdOptions()
    setattr(opts, field, value)
    with pytest.raises(ValueError, match=word):
        c.mrcpd_decompose(T4, 2, opts)
