"""The public surface: what ``cpdkit`` exports and which knobs the
mode-reduction pipeline, the Khatri-Rao fitters, the rank tests and the
CLI take.  Adding or removing any of them changes this test on purpose."""

import ast
import dataclasses
import inspect
import re
import shlex
from pathlib import Path

import cpdkit
from cpdkit.bench import BenchConfig
from cpdkit.cli import build_parser
from cpdkit.krproj import kr_project
from cpdkit.mrcpd import Compression, MrcpdOptions, compress_mode
from cpdkit.uniqueness import kruskal_rank, mode_rank


def test_every_exported_name_resolves():
    for name in cpdkit.__all__:
        assert hasattr(cpdkit, name), name


def test_exported_names():
    assert sorted(cpdkit.__all__) == [
        "BenchConfig", "BoundReport", "Compression", "KTensor", "MatchResult",
        "ModeSplit", "MrcpdOptions", "RunRecord", "SolveReport",
        "SolverOptions", "UniquenessReport", "add_noise",
        "check_unfolded_uniqueness", "collinearity", "compress_mode",
        "cp_als", "fit", "gcr", "gen_bottleneck_ktensor",
        "gen_random_ktensor", "get_solver", "hadamard", "khatri_rao",
        "kr_project", "krank_product_bound", "kruskal_rank", "ksb_check",
        "match_factors", "matricize", "mode_rank", "mrcpd_decompose", "msir",
        "normalize", "plan_unfolding", "read_ktns", "read_tnsr",
        "reconstruct", "recover_merged_factor", "reduce_modes",
        "register_solver", "run_benchmark", "sim1_config", "sim2_config",
        "summarize", "tensorize", "verify_error_bound", "write_csv",
        "write_ktns", "write_tnsr"]


def test_mrcpd_options_fields():
    assert [f.name for f in dataclasses.fields(MrcpdOptions)] == [
        "split", "solver_opts", "nonneg", "compression", "restarts"]


def test_bench_config_fields():
    assert [f.name for f in dataclasses.fields(BenchConfig)] == [
        "name", "shape", "rank", "snr_db", "runs", "seed"]


def test_compression_fields():
    assert [f.name for f in dataclasses.fields(Compression)] == ["kind"]


def test_kernel_parameters():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(compress_mode) == ["T3", "mode", "width"]
    assert params(kr_project) == ["H", "sizes", "nonneg"]
    assert params(mode_rank) == ["T", "n", "cap"]
    assert params(kruskal_rank) == ["M"]


def test_cli_options():
    commands = next(a for a in build_parser()._actions
                    if a.dest == "command").choices

    def options(name):
        return sorted(s for a in commands[name]._actions
                      for s in a.option_strings)

    assert options("decompose") == sorted([
        "--input", "--rank", "--method", "--split", "--solver-tol",
        "--max-iters", "--seed", "--nonneg", "--init",
        "--output", "-h", "--help"])
    assert options("krproj") == sorted([
        "--input", "--shape", "--nonneg", "-h", "--help"])


def test_readme_commands_parse():
    # every `cpd ...` line of README's Command line block, continuations
    # joined, must parse: a renamed flag cannot leave the README stale
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("cpd ")]
    assert {c[0] for c in commands} == {"decompose", "analyze", "krproj",
                                        "bench"}
    for argv in commands:
        build_parser().parse_args(argv)


def test_only_tensor_packs_binary_layouts():
    # the .tnsr/.ktns container codec lives in tensor.py alone: no other
    # module imports struct, so the layout cannot fork again
    importers = set()
    for path in Path(cpdkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "struct" in names:
                importers.add(path.name)
    assert importers == {"tensor.py"}


def test_sweep_kernels_import_no_scipy():
    # SciPy's LAPACK runs on its own BLAS thread pool, which contends with
    # NumPy's inside the ALS sweep: the solve and rank kernels stay NumPy
    for name in ("als.py", "linalg.py"):
        tree = ast.parse((Path(cpdkit.__file__).parent / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), name
