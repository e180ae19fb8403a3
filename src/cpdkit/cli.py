"""Command-line front end.

Subcommands: ``decompose`` (fit a tensor file, write factors), ``bench``
(Monte-Carlo comparisons to CSV), ``analyze`` (rank / uniqueness report),
``krproj`` (print the KR projection residual of a merged factor matrix).
Mode numbers on the command line are 1-based; a split is written as groups
separated by ``|`` with modes separated by commas, e.g. ``"1|2,3|4,5"``.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .als import SolverOptions, cp_als
from .bench import run_benchmark, sim1_config, sim2_config, summarize
from .krproj import kr_project
from .ktensor import KTNS_MAGIC, read_ktns, write_ktns
from .mrcpd import (INNER_MAX_ITERS, MrcpdOptions, _plan, mrcpd_decompose,
                    plan_unfolding)
from .tensor import ModeSplit, TNSR_MAGIC, read_tnsr
from .uniqueness import (KRUSKAL_RANK_MAX_COLS, check_unfolded_uniqueness,
                         ksb_check, kruskal_rank, mode_rank)


def parse_split(text: str) -> ModeSplit:
    """Parse ``"1|2,3|4,5"`` into a ModeSplit (1-based modes, listing order
    is the permutation).  The listed modes must be 1..count, each once."""
    groups, typed = [], []
    for part in text.split("|"):
        tokens = [tok.strip() for tok in part.split(",") if tok.strip()]
        try:
            modes = tuple(int(tok) for tok in tokens)
        except ValueError:
            raise ValueError(f"bad split group {part!r}") from None
        if not modes:
            raise ValueError(f"empty group in split {text!r}")
        groups.append(modes)
        typed.extend(zip(tokens, modes))
    seen = set()
    for tok, m in typed:
        if not 1 <= m <= len(typed):
            raise ValueError(f"split mode {tok!r} is out of range: the "
                             f"{len(typed)} listed modes are numbered "
                             f"1..{len(typed)}")
        if m in seen:
            raise ValueError(f"split mode {tok!r} is listed twice in "
                             f"{text!r}")
        seen.add(m)
    perm = tuple(m - 1 for g in groups for m in g)
    cuts = [0]
    for g in groups:
        cuts.append(cuts[-1] + len(g))
    return ModeSplit(perm, tuple(cuts))


def format_split(split: ModeSplit) -> str:
    return "|".join(",".join(str(m + 1) for m in g) for g in split.group_modes())


def _parse_int(flag: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{flag}: {token!r} is not an integer") from None


def _cmd_decompose(args) -> int:
    if args.method == "als":
        for flag, value, default in (("--split", args.split, None),
                                     ("--nonneg", args.nonneg, False)):
            if value != default:
                raise ValueError(f"{flag} is for --method mrcpd; "
                                 "--method als does not use it")
    elif args.init is not None:
        raise ValueError("--init is for --method als; "
                         "--method mrcpd does not use it")
    T = read_tnsr(args.input)
    init = read_ktns(args.init) if args.init else None
    if args.max_iters is None:
        args.max_iters = (INNER_MAX_ITERS if args.method == "mrcpd"
                          else SolverOptions.max_iters)
    sopts = SolverOptions(max_iters=args.max_iters, tol=args.solver_tol,
                          seed=args.seed, init=init)
    if args.method == "als":
        kt, rep = cp_als(T, args.rank, sopts)
        line = (f"method=als fit={float(rep.final_fit)!r} "
                f"runtime_s={rep.runtime_s:.3f} "
                f"iterations={rep.iterations} converged={rep.converged}")
    else:
        opts = MrcpdOptions(
            split=parse_split(args.split) if args.split else None,
            solver_opts=sopts,
            nonneg=args.nonneg)
        kt, rep, bound = mrcpd_decompose(T, args.rank, opts)
        norm_t = float(np.linalg.norm(T))
        line = (f"method=mrcpd fit={float(1.0 - bound.final_err / norm_t)!r} "
                f"runtime_s={rep.runtime_s:.3f} iterations={rep.iterations} "
                f"converged={rep.converged} eps_k={float(bound.eps_k)!r} "
                f"bound_slack={float(bound.bound - bound.final_err)!r}")
    write_ktns(args.output, kt)
    print(line)
    return 0


def _cmd_bench(args) -> int:
    config = sim1_config if args.experiment == "sim1" else sim2_config
    scale = {} if args.scale is None else {"scale": args.scale}
    cfg = config(args.runs, args.seed, **scale)
    records = run_benchmark(cfg, out_csv=args.out)
    for method, stats in summarize(records).items():
        print(f"method={method} gcr_pct={stats['gcr_pct']:.1f} "
              f"median_runtime_s={stats['median_runtime_s']:.3f} "
              f"mean_msir_db={stats['mean_msir_db']:.2f} "
              f"mean_fit_noiseless={stats['mean_fit_noiseless']:.6f}")
    print(f"wrote {args.out}")
    return 0


def _sniff_magic(path) -> bytes:
    with open(path, "rb") as f:
        return f.read(4)


def _analyze_tensor(T, rank) -> int:
    print(f"order={T.ndim} shape={tuple(T.shape)}")
    ranks = [mode_rank(T, n) for n in range(T.ndim)]
    for n, r in enumerate(ranks):
        print(f"mode {n + 1}: size={T.shape[n]} rank={r}")
    if rank is None:
        print("pass --rank to get a uniqueness report and a split plan")
        return 0
    if T.ndim < 4:
        split, estimates = None, [max(1, min(r, rank)) for r in ranks]
    else:
        # mrcpd_decompose's own pass and plan, so the split is the one it runs
        split, _, _, estimates = _plan(T, rank)
    print(f"krank estimates (rank-capped mode ranks): {estimates}")
    _report_uniqueness(estimates, rank, split)
    return 0


def _analyze_ktensor(kt) -> int:
    J = kt.rank
    print(f"order={kt.order} shape={kt.shape} rank={J}")
    if J <= KRUSKAL_RANK_MAX_COLS:
        kranks = [kruskal_rank(A) for A in kt.factors]
        print(f"factor kruskal ranks: {kranks}")
    else:
        kranks = [max(1, mode_rank(A, 0, cap=J)) for A in kt.factors]
        print(f"factor krank estimates (rank-based, {J} columns is too many "
              f"for the exact test): {kranks}")
    _report_uniqueness(kranks, J, plan_unfolding(kranks, J)
                       if kt.order >= 4 else None)
    return 0


def _report_uniqueness(kranks, J, split) -> None:
    """Print the Kruskal-sum checks of ``kranks``; ``split=None`` means
    the order is below 4."""
    rep = ksb_check(kranks, J)
    print(f"kruskal-sum condition: sum={rep.lhs} threshold={rep.rhs} "
          f"margin={rep.margin} satisfied={rep.satisfied}")
    if split is None:
        print("tensor order below 4: no mode reduction to plan")
        return
    urep = check_unfolded_uniqueness(kranks, J, split)
    print(f"recommended split: \"{format_split(split)}\" "
          f"group_bounds={list(urep.group_bounds)}")
    print(f"unfolded condition: sum={urep.lhs} threshold={urep.rhs} "
          f"margin={urep.margin} satisfied={urep.satisfied}")


def _cmd_analyze(args) -> int:
    magic = _sniff_magic(args.input)
    if magic == TNSR_MAGIC:
        return _analyze_tensor(read_tnsr(args.input), args.rank)
    if magic == KTNS_MAGIC:
        kt = read_ktns(args.input)
        if args.rank is not None and args.rank != kt.rank:
            raise ValueError(f"--rank {args.rank} does not match the rank "
                             f"{kt.rank} of factor file {args.input}")
        return _analyze_ktensor(kt)
    raise ValueError(f"{args.input}: neither a tensor nor a factor file")


def _cmd_krproj(args) -> int:
    H = read_tnsr(args.input)
    if H.ndim != 2:
        raise ValueError(f"expected an order-2 tensor (a matrix), got order "
                         f"{H.ndim}")
    sizes = [_parse_int("--shape", tok) for tok in args.shape.split(",")
             if tok.strip()]
    _, eps = kr_project(H, sizes, nonneg=args.nonneg)
    print(f"eps_k={eps!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cpd",
                                description="CP decomposition toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose a tensor file")
    d.add_argument("--input", required=True)
    d.add_argument("--rank", type=int, required=True)
    d.add_argument("--method", choices=("als", "mrcpd"), required=True)
    d.add_argument("--split", default=None,
                   help='mode groups, e.g. "1|2,3|4,5" (mrcpd only)')
    d.add_argument("--solver-tol", type=float, default=1e-8)
    d.add_argument("--max-iters", type=int, default=None,
                   help="sweep cap of the ALS solve (default "
                        f"{SolverOptions.max_iters} for als, "
                        f"{INNER_MAX_ITERS} for mrcpd's inner solve)")
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--nonneg", action="store_true",
                   help="nonnegative KR projection (mrcpd only; runs the "
                        "power fitter)")
    d.add_argument("--init", default=None,
                   help="initial factors file (als only)")
    d.add_argument("--output", required=True)
    d.set_defaults(func=_cmd_decompose)

    b = sub.add_parser("bench", help="run a Monte-Carlo benchmark")
    b.add_argument("experiment", choices=("sim1", "sim2"))
    b.add_argument("--runs", type=int, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--scale", type=int, default=None,
                   help="mode size override")
    b.set_defaults(func=_cmd_bench)

    a = sub.add_parser("analyze", help="rank and uniqueness report")
    a.add_argument("--input", required=True)
    a.add_argument("--rank", type=int, default=None)
    a.set_defaults(func=_cmd_analyze)

    k = sub.add_parser("krproj", help="print the KR projection residual eps_k")
    k.add_argument("--input", required=True,
                   help="order-2 tensor file holding the merged factor")
    k.add_argument("--shape", required=True, help='mode sizes, e.g. "4,5"')
    k.add_argument("--nonneg", action="store_true",
                   help="nonnegative projection (runs the power fitter)")
    k.set_defaults(func=_cmd_krproj)
    return p


def _warning_line(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


# Numeric flags checked before any command runs: (flag, attribute, test,
# what the error says about a value that fails the test).
_FLAG_RULES = (
    ("--seed", "seed", lambda v: v >= 0,
     "is negative; seeds are non-negative integers"),
    ("--rank", "rank", lambda v: v >= 1, "is not a positive rank"),
    ("--max-iters", "max_iters", lambda v: v >= 1, "must be at least 1"),
    ("--solver-tol", "solver_tol", lambda v: v >= 0, "must be >= 0"),
)


def _check_flags(args) -> None:
    """Reject an out-of-range numeric flag with an error that names it."""
    for flag, attr, ok, why in _FLAG_RULES:
        value = getattr(args, attr, None)
        if value is not None and not ok(value):
            raise ValueError(f"{flag}: '{value}' {why}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            _check_flags(args)
            return args.func(args)
        except (ValueError, RuntimeError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        except MemoryError as e:
            print(f"error: out of memory: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
