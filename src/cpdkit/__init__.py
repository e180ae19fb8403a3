"""Dense-tensor CP decomposition with mode-reduction acceleration."""

from .als import SolveReport, SolverOptions, cp_als, get_solver, register_solver
from .bench import (BenchConfig, RunRecord, gcr, run_benchmark, sim1_config,
                    sim2_config, summarize, write_csv)
from .krproj import kr_project
from .ktensor import (KTensor, MatchResult, fit, match_factors, msir,
                      normalize, read_ktns, reconstruct, write_ktns)
from .linalg import hadamard, khatri_rao
from .mrcpd import (BoundReport, Compression, MrcpdOptions, compress_mode,
                    mrcpd_decompose, plan_unfolding, recover_merged_factor,
                    verify_error_bound)
from .synth import add_noise, gen_bottleneck_ktensor, gen_random_ktensor
from .tensor import (ModeSplit, matricize, read_tnsr, reduce_modes, tensorize,
                     write_tnsr)
from .uniqueness import (UniquenessReport, check_unfolded_uniqueness,
                         collinearity, krank_product_bound, kruskal_rank,
                         ksb_check, mode_rank)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "BoundReport", "Compression", "KTensor", "MatchResult",
    "ModeSplit", "MrcpdOptions", "RunRecord", "SolveReport", "SolverOptions",
    "UniquenessReport", "add_noise", "check_unfolded_uniqueness",
    "collinearity", "compress_mode", "cp_als", "fit", "gcr",
    "gen_bottleneck_ktensor", "gen_random_ktensor", "get_solver", "hadamard",
    "khatri_rao", "kr_project", "krank_product_bound", "kruskal_rank",
    "ksb_check", "match_factors", "matricize", "mode_rank", "mrcpd_decompose",
    "msir", "normalize", "plan_unfolding", "read_ktns", "read_tnsr",
    "reconstruct", "recover_merged_factor", "reduce_modes", "register_solver",
    "run_benchmark", "sim1_config", "sim2_config", "summarize", "tensorize",
    "verify_error_bound", "write_csv", "write_ktns", "write_tnsr",
]
