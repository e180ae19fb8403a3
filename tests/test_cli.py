"""Command-line front end, run in-process through main()."""

import csv
import warnings

import numpy as np
import pytest

from cpdkit import bench, cli
from cpdkit.cli import (
    build_parser,
    format_split,
    main,
    parse_split,
)
from cpdkit.als import SolverOptions
from cpdkit.ktensor import (KTNS_MAGIC, KTensor, fit, read_ktns, reconstruct,
                            write_ktns)
from cpdkit.linalg import khatri_rao
from cpdkit.mrcpd import INNER_MAX_ITERS, MrcpdOptions, mrcpd_decompose
from cpdkit.synth import gen_bottleneck_ktensor, gen_random_ktensor
from cpdkit.tensor import ModeSplit, _write_container, write_tnsr


def test_parse_split():
    split = parse_split("1|2,3|4,5")
    assert split == ModeSplit((0, 1, 2, 3, 4), (0, 1, 3, 5))
    assert format_split(split) == "1|2,3|4,5"
    # listing order is the permutation
    assert parse_split("3,1|2,4").perm == (2, 0, 1, 3)
    with pytest.raises(ValueError, match="split"):
        parse_split("1||2")
    with pytest.raises(ValueError, match="split group"):
        parse_split("1|a,2")
    # typed mode numbers are quoted as typed, never shifted to 0-based
    with pytest.raises(ValueError, match="split mode '0' is out of range"):
        parse_split("0|1|2,3")
    with pytest.raises(ValueError, match="split mode '5' is out of range"):
        parse_split("1|2|3,5")
    with pytest.raises(ValueError, match="split mode '3' is listed twice"):
        parse_split("1|2|3,3")


def test_parser_requires_subcommand_and_flags():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "sim1", "--runs", "2"])


def test_decompose_als(tmp_path, capsys):
    truth = gen_random_ktensor((5, 4, 3), 2, seed=201)
    inp = tmp_path / "t.tnsr"
    outp = tmp_path / "est.ktns"
    write_tnsr(inp, reconstruct(truth))
    code = main(["decompose", "--input", str(inp), "--rank", "2",
                 "--method", "als", "--seed", "3", "--max-iters", "400",
                 "--solver-tol", "1e-13", "--output", str(outp)])
    assert code == 0
    line = capsys.readouterr().out
    assert line.startswith("method=als fit=")
    assert "converged=" in line
    est = read_ktns(outp)
    assert est.shape == (5, 4, 3)


def test_decompose_mrcpd_with_split(tmp_path, capsys):
    truth = gen_random_ktensor((4, 5, 3, 4), 2, seed=202)
    inp = tmp_path / "t.tnsr"
    outp = tmp_path / "est.ktns"
    write_tnsr(inp, reconstruct(truth))
    code = main(["decompose", "--input", str(inp), "--rank", "2",
                 "--method", "mrcpd", "--split", "1,2|3|4", "--seed", "1",
                 "--max-iters", "500", "--solver-tol", "1e-12",
                 "--output", str(outp)])
    assert code == 0
    out = capsys.readouterr().out
    assert "method=mrcpd" in out
    assert "eps_k=" in out and "bound_slack=" in out
    est = read_ktns(outp)
    assert est.shape == (4, 5, 3, 4)


def test_decompose_with_init(tmp_path, capsys):
    truth = gen_random_ktensor((5, 4, 3), 2, seed=203)
    inp = tmp_path / "t.tnsr"
    initp = tmp_path / "init.ktns"
    outp = tmp_path / "est.ktns"
    write_tnsr(inp, reconstruct(truth))
    write_ktns(initp, truth)
    code = main(["decompose", "--input", str(inp), "--rank", "2",
                 "--method", "als", "--init", str(initp),
                 "--output", str(outp)])
    assert code == 0
    est = read_ktns(outp)
    assert fit(reconstruct(truth), reconstruct(est)) > 1 - 1e-6


@pytest.mark.parametrize("command", ["decompose", "krproj"])
def test_constraint_runs_power_fitter(tmp_path, capsys, command):
    # a constraint picks the power fitter; no second flag is needed
    rng = np.random.default_rng(209)
    inp = tmp_path / "t.tnsr"
    outp = tmp_path / "est.ktns"
    if command == "decompose":
        truth = KTensor([rng.uniform(0.1, 1.0, (s, 2)) for s in (4, 3, 4, 3)])
        write_tnsr(inp, reconstruct(truth))
        argv = ["decompose", "--input", str(inp), "--rank", "2",
                "--method", "mrcpd", "--split", "1|2|3,4", "--seed", "0",
                "--nonneg", "--output", str(outp)]
    else:
        write_tnsr(inp, khatri_rao([rng.uniform(0.1, 1.0, (4, 2)),
                                    rng.uniform(0.1, 1.0, (5, 2))]))
        argv = ["krproj", "--input", str(inp), "--shape", "4,5", "--nonneg"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "decompose":
        # mode 3 holds the unit directions of the constrained group 3,4
        assert np.all(read_ktns(outp).factors[2] >= -1e-12)
    else:
        assert float(captured.out.split("eps_k=")[1]) < 1e-10


def test_nonneg_decompose_keeps_unconstrained_fit(tmp_path, capsys):
    # exactly nonnegative rank-2 data: the constrained projection must not
    # collapse a merged column the unconstrained solve left negative
    rng = np.random.default_rng(209)
    truth = KTensor([rng.uniform(0.1, 1.0, (s, 2)) for s in (4, 3, 4, 3)])
    inp = tmp_path / "t.tnsr"
    write_tnsr(inp, reconstruct(truth))
    fits = []
    for flags in ([], ["--nonneg"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["decompose", "--input", str(inp), "--rank", "2",
                         "--method", "mrcpd", "--seed", "7", *flags,
                         "--output", str(tmp_path / "est.ktns")]) == 0
        fits.append(float(capsys.readouterr().out.split("fit=")[1].split()[0]))
    assert abs(fits[1] - fits[0]) <= 1e-6


def test_decompose_mrcpd_defaults_match_library(tmp_path, capsys):
    # the CLI's mrcpd defaults are the library's: compression on and the
    # inner sweep budget INNER_MAX_ITERS, which this problem needs past 100
    T = reconstruct(gen_bottleneck_ktensor(10, 5, seed=2))
    inp = tmp_path / "t.tnsr"
    outp = tmp_path / "est.ktns"
    write_tnsr(inp, T)
    assert main(["decompose", "--input", str(inp), "--rank", "5",
                 "--method", "mrcpd", "--seed", "3",
                 "--output", str(outp)]) == 0
    line = capsys.readouterr().out
    assert int(line.split("iterations=")[1].split()[0]) > 100
    assert "converged=True" in line
    want, _, _ = mrcpd_decompose(T, 5, MrcpdOptions(
        solver_opts=SolverOptions(max_iters=INNER_MAX_ITERS, seed=3)))
    got = read_ktns(outp)
    assert np.array_equal(got.weights, want.weights)
    for A, B in zip(got.factors, want.factors):
        assert np.array_equal(A, B)


def test_decompose_mrcpd_rank_deficient_merged_mode(tmp_path, capsys):
    # merging the two sine modes 3 and 4 gives a 400-row mode of numerical
    # rank 4 < J = 5: compression keeps its 4 directions, which keep the
    # data, and the solve converges
    inp = tmp_path / "t.tnsr"
    write_tnsr(inp, reconstruct(gen_bottleneck_ktensor(20, 5, seed=3)))
    assert main(["decompose", "--input", str(inp), "--rank", "5",
                 "--method", "mrcpd", "--split", "3,4|1|2,5", "--seed", "0",
                 "--output", str(tmp_path / "est.ktns")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert float(captured.out.split("fit=")[1].split()[0]) >= 0.9999


def test_negative_seed_names_the_flag(tmp_path, capsys):
    inp = tmp_path / "t.tnsr"
    write_tnsr(inp, np.ones((3, 3, 3)))
    for seed, argv in (
            ("-1", ["decompose", "--input", str(inp), "--rank", "2",
                    "--method", "als", "--output", str(tmp_path / "e.ktns")]),
            ("-5", ["bench", "sim1", "--runs", "1",
                    "--out", str(tmp_path / "b.csv")])):
        assert main([*argv, "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: --seed: '{seed}' is negative; "
                                "seeds are non-negative integers\n")
        assert captured.out == ""
    assert [f.name for f in tmp_path.iterdir()] == ["t.tnsr"]


@pytest.mark.parametrize("flags, message", [
    (["--solver-tol", "-1"], "--solver-tol: '-1.0' must be >= 0"),
    (["--solver-tol", "nan"], "--solver-tol: 'nan' must be >= 0"),
    (["--max-iters", "0"], "--max-iters: '0' must be at least 1"),
    (["--rank", "0"], "--rank: '0' is not a positive rank"),
])
def test_out_of_range_flag_names_the_flag(tmp_path, capsys, flags, message):
    inp = tmp_path / "t.tnsr"
    write_tnsr(inp, np.ones((3, 3, 3)))
    argv = ["decompose", "--input", str(inp), "--rank", "2", "--method",
            "als", "--output", str(tmp_path / "e.ktns")]
    assert main([*argv, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    if flags[0] == "--rank":
        assert main(["analyze", "--input", str(inp), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert [f.name for f in tmp_path.iterdir()] == ["t.tnsr"]


@pytest.mark.parametrize("method", ["als", "mrcpd"])
def test_decompose_warning_is_one_line(tmp_path, capsys, method):
    # a rank above the feasible rank warns in one line and still succeeds
    inp = tmp_path / "t.tnsr"
    write_tnsr(inp, np.random.default_rng(5).standard_normal((4, 3, 4, 3)))
    assert main(["decompose", "--input", str(inp), "--rank", "200",
                 "--method", method, "--seed", "1", "--max-iters", "5",
                 "--output", str(tmp_path / "est.ktns")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: rank 200 exceeds the largest feasible "
                          "rank")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, value", [
    ("--split", "1|2|3"),
    pytest.param("--nonneg", None, id="--nonneg")])
def test_decompose_als_rejects_mrcpd_flags(tmp_path, capsys, flag, value):
    inp = tmp_path / "t.tnsr"
    outp = tmp_path / "est.ktns"
    write_tnsr(inp, reconstruct(gen_random_ktensor((5, 4, 3), 2, seed=211)))
    code = main(["decompose", "--input", str(inp), "--rank", "2",
                 "--method", "als", flag, *([value] if value else []),
                 "--output", str(outp)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and flag in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not outp.exists()


def test_decompose_mrcpd_rejects_init(tmp_path, capsys):
    truth = gen_random_ktensor((4, 3, 4, 3), 2, seed=208)
    inp = tmp_path / "t.tnsr"
    initp = tmp_path / "init.ktns"
    outp = tmp_path / "est.ktns"
    write_tnsr(inp, reconstruct(truth))
    write_ktns(initp, truth)
    code = main(["decompose", "--input", str(inp), "--rank", "2",
                 "--method", "mrcpd", "--init", str(initp),
                 "--output", str(outp)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: --init is for --method als; --method mrcpd "
                   "does not use it\n")
    assert not outp.exists()


@pytest.mark.parametrize("argv, message", [
    (["krproj", "--shape", "4,x"], "--shape: 'x' is not an integer"),
    (["krproj", "--shape=-4,-5"], "mode sizes must be >= 1, got [-4, -5]"),
    (["krproj", "--shape=0,20"], "mode sizes must be >= 1, got [0, 20]"),
], ids=["4,x", "-4,-5", "0,20"])
def test_bad_size_tokens_rejected(tmp_path, capsys, argv, message):
    rng = np.random.default_rng(215)
    inp = tmp_path / "t.tnsr"
    outp = tmp_path / "est.ktns"
    if argv[0] == "decompose":
        write_tnsr(inp, reconstruct(gen_random_ktensor((4, 3, 4, 3), 2,
                                                       seed=216)))
        argv = argv + ["--rank", "2", "--method", "mrcpd",
                       "--output", str(outp)]
    else:
        write_tnsr(inp, khatri_rao([rng.standard_normal((4, 2)),
                                    rng.standard_normal((5, 2))]))
    assert main(argv + ["--input", str(inp)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not outp.exists()


def test_analyze_tensor(tmp_path, capsys):
    truth = gen_random_ktensor((6, 5, 4, 3), 2, seed=204)
    inp = tmp_path / "t.tnsr"
    write_tnsr(inp, reconstruct(truth))

    assert main(["analyze", "--input", str(inp)]) == 0
    out = capsys.readouterr().out
    assert "order=4" in out
    assert "pass --rank" in out

    assert main(["analyze", "--input", str(inp), "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "kruskal-sum condition" in out
    assert "recommended split" in out


def test_analyze_ktensor(tmp_path, capsys):
    truth = gen_random_ktensor((6, 5, 4), 3, seed=205)
    inp = tmp_path / "f.ktns"
    write_ktns(inp, truth)
    assert main(["analyze", "--input", str(inp)]) == 0
    out = capsys.readouterr().out
    assert "factor kruskal ranks: [3, 3, 3]" in out
    assert "order below 4" in out


def test_analyze_bottleneck_ktensor_splits_the_sine_modes(tmp_path, capsys):
    # modes 3 and 4 (1-based) are the rank-2 sine modes: merging them into
    # one group is what makes ALS swamp, so the plan keeps them apart
    inp = tmp_path / "b.ktns"
    write_ktns(inp, gen_bottleneck_ktensor(20, 5, seed=0))
    assert main(["analyze", "--input", str(inp)]) == 0
    out = capsys.readouterr().out
    assert "factor kruskal ranks: [5, 5, 2, 2, 5]" in out
    line = next(t for t in out.splitlines() if t.startswith("recommended"))
    groups = [set(g.split(",")) for g in line.split('"')[1].split("|")]
    assert sorted(map(len, groups)) == [1, 2, 2]
    assert not any({"3", "4"} <= g for g in groups)
    assert "group_bounds=[5, 5, 5]" in line


def test_analyze_wide_ktensor_uses_rank_cutoff(tmp_path, capsys):
    # more columns than the exact Kruskal test takes: the estimate is the
    # mode rank at RANK_RTOL, so a column equal to another up to 1e-10
    # noise does not count
    rng = np.random.default_rng(1)
    A = rng.standard_normal((20, 13))
    A[:, 12] = A[:, 0] + 1e-10 * rng.standard_normal(20)
    inp = tmp_path / "f.ktns"
    write_ktns(inp, KTensor([A, rng.standard_normal((20, 13)),
                             rng.standard_normal((20, 13))]))
    assert main(["analyze", "--input", str(inp)]) == 0
    assert "krank estimates (rank-based, 13 columns is too many for the " \
        "exact test): [12, 13, 13]" in capsys.readouterr().out


def test_analyze_unknown_file(tmp_path, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"JUNKJUNKJUNK")
    assert main(["analyze", "--input", str(junk)]) == 1
    assert "neither a tensor nor a factor file" in capsys.readouterr().err


def test_missing_input_reports_error(tmp_path, capsys):
    assert main(["analyze", "--input", str(tmp_path / "absent.tnsr")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["als", "mrcpd"])
def test_decompose_rejects_non_finite_input(tmp_path, capsys, method):
    T = reconstruct(gen_random_ktensor((4, 3, 4, 3), 2, seed=207))
    T[2, 1, 0, 2] = np.nan
    inp = tmp_path / "nan.tnsr"
    write_tnsr(inp, T)
    code = main(["decompose", "--input", str(inp), "--rank", "2",
                 "--method", method, "--output", str(tmp_path / "e.ktns")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NaN or Inf" in err
    assert err.count("\n") == 1


def test_analyze_rejects_non_finite_input(tmp_path, capsys):
    T = np.ones((3, 4, 2, 2))
    T[1, 1, 1, 1] = np.inf
    inp = tmp_path / "inf.tnsr"
    write_tnsr(inp, T)
    assert main(["analyze", "--input", str(inp)]) == 1
    assert "non-finite" in capsys.readouterr().err


def assert_one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    for needle in needles:
        assert needle in err


def write_unchecked_ktns(path, kt):
    """``kt`` in the ``.ktns`` container, NaN or Inf entries included,
    which :func:`write_ktns` refuses to write."""
    _write_container(path, KTNS_MAGIC, (kt.order, kt.rank), kt.shape,
                     (kt.weights, *kt.factors))


def test_analyze_rejects_non_finite_ktensor(tmp_path, capsys):
    kt = gen_random_ktensor((4, 3, 5), 2, seed=208)
    kt.factors[1][0, 1] = np.nan
    inp = tmp_path / "nan.ktns"
    write_unchecked_ktns(inp, kt)
    assert main(["analyze", "--input", str(inp)]) == 1
    assert_one_line_error(capsys, "nan.ktns", "NaN or Inf")


def test_decompose_rejects_non_finite_init(tmp_path, capsys):
    truth = gen_random_ktensor((4, 3, 5), 2, seed=209)
    inp = tmp_path / "t.tnsr"
    write_tnsr(inp, reconstruct(truth))
    truth.factors[0][2, 0] = np.inf
    init = tmp_path / "inf.ktns"
    write_unchecked_ktns(init, truth)
    outp = tmp_path / "e.ktns"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["decompose", "--input", str(inp), "--rank", "2",
                     "--method", "als", "--init", str(init),
                     "--output", str(outp)])
    assert code == 1
    assert_one_line_error(capsys, "inf.ktns", "NaN or Inf")
    assert not outp.exists()


def test_krproj_rejects_non_finite_input(tmp_path, capsys):
    H = np.ones((20, 3))
    H[7, 1] = np.nan
    inp = tmp_path / "h.tnsr"
    write_tnsr(inp, H)
    assert main(["krproj", "--input", str(inp), "--shape", "4,5"]) == 1
    assert_one_line_error(capsys, "NaN or Inf")


def test_krproj_zero_columns_is_one_line(tmp_path, capsys):
    inp = tmp_path / "h.tnsr"
    write_tnsr(inp, np.zeros((12, 0)))
    assert main(["krproj", "--input", str(inp), "--shape", "4,3"]) == 1
    assert_one_line_error(capsys, "H has 0 columns")


@pytest.mark.parametrize("method", ["als", "mrcpd"])
def test_decompose_unwritable_output_prints_no_result(tmp_path, capsys,
                                                      method):
    inp = tmp_path / "t.tnsr"
    write_tnsr(inp, reconstruct(gen_random_ktensor((4, 3, 4, 3), 2,
                                                   seed=211)))
    code = main(["decompose", "--input", str(inp), "--rank", "2",
                 "--method", method, "--seed", "0", "--max-iters", "20",
                 "--output", str(tmp_path / "absent" / "o.ktns")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_analyze_ktensor_rank_must_match(tmp_path, capsys):
    inp = tmp_path / "f.ktns"
    write_ktns(inp, gen_random_ktensor((6, 5, 4), 3, seed=210))
    assert main(["analyze", "--input", str(inp), "--rank", "7"]) == 1
    assert_one_line_error(capsys, "--rank 7", "rank 3")
    assert main(["analyze", "--input", str(inp), "--rank", "3"]) == 0
    assert "factor kruskal ranks: [3, 3, 3]" in capsys.readouterr().out


def test_krproj_command(tmp_path, capsys):
    rng = np.random.default_rng(206)
    H = khatri_rao([rng.standard_normal((4, 3)), rng.standard_normal((5, 3))])
    inp = tmp_path / "h.tnsr"
    write_tnsr(inp, H)
    assert main(["krproj", "--input", str(inp), "--shape", "4,5"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("eps_k=")[1]) < 1e-10

    bad = tmp_path / "bad.tnsr"
    write_tnsr(bad, np.zeros((2, 2, 2)))
    assert main(["krproj", "--input", str(bad), "--shape", "2,2"]) == 1
    assert "order-2" in capsys.readouterr().err


def test_bench_command(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", "sim2", "--runs", "1", "--seed", "3",
                 "--scale", "6", "--out", str(out_csv)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "method=als" in printed and "method=mrcpd" in printed
    assert f"wrote {out_csv}" in printed
    with open(out_csv, newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3                          # header + one row per method
    assert rows[1][0] == "als" and rows[2][0] == "mrcpd"


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_bench_rejects_nonpositive_runs(tmp_path, capsys, runs):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", "sim1", "--runs", runs, "--seed", "3",
                 "--out", str(out_csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "runs must be >= 1" in err
    assert err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("experiment", ["sim1", "sim2"])
@pytest.mark.parametrize("flags, passed", [([], {}),
                                          (["--scale", "7"], {"scale": 7})])
def test_bench_passes_scale_only_when_given(tmp_path, monkeypatch,
                                            experiment, flags, passed):
    # sim1_config and sim2_config own the default mode sizes
    seen = []

    def config(runs, seed, **kw):
        seen.append(kw)
        raise ValueError("stop before running")

    monkeypatch.setattr(cli, f"{experiment}_config", config)
    assert main(["bench", experiment, "--runs", "1", "--seed", "0",
                 "--out", str(tmp_path / "b.csv"), *flags]) == 1
    assert seen == [passed]


@pytest.mark.parametrize("experiment", ["sim1", "sim2"])
def test_bench_rejects_scale_zero(tmp_path, capsys, experiment):
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", experiment, "--runs", "1", "--seed", "3",
                 "--scale", "0", "--out", str(out_csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mode sizes must be >= 3" in err
    assert err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("rank", ["7", "10"])
def test_decompose_infeasible_rank_is_one_line(tmp_path, capsys, rank):
    # merged 100x2x3: compression keeps at most 2*3 = 6 directions of the
    # 100-wide mode, so rank 7 or 10 cannot be recovered
    inp = tmp_path / "t.tnsr"
    outp = tmp_path / "est.ktns"
    write_tnsr(inp, np.random.default_rng(240).standard_normal((10, 10, 2, 3)))
    code = main(["decompose", "--input", str(inp), "--rank", rank,
                 "--method", "mrcpd", "--split", "1,2|3|4",
                 "--output", str(outp)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (f"error: rank {rank} exceeds the feasible rank 6 of the "
                   f"merged 100x2x3 tensor; use a rank of at most 6 or "
                   f"another split\n")
    assert not outp.exists()


def test_bench_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch):
    # a mode-size override past the box's memory fails inside the data
    # generator; stand that failure in for the real allocation
    def too_big(cfg, stream):
        raise MemoryError("Unable to allocate 358. GiB for an array")

    monkeypatch.setattr(bench, "_gen_truth", too_big)
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", "sim1", "--runs", "1", "--seed", "0",
                 "--scale", "1000", "--out", str(out_csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 358. GiB for "
                   "an array\n")
    assert not out_csv.exists()
