"""Command-line harness: generate graphs, run experiments, verify guarantees.

Exit codes: 0 success, 2 usage error, 3 invariant/verification failure,
4 engine contract violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import records as rec
from .algorithms import ALGORITHMS, UsageError, as_inner
from .cliquecycle import rand_mis
from .engine import EngineError
from .graphs import (BRUTE_FORCE_CAP, FAMILIES, WEIGHT_MODELS, GraphError,
                     generate, load, save)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_ENGINE = 4


def _default_seed() -> int:
    return int(os.environ.get("MWISIM_SEED", "0"))


def _parse_seeds(spec: str) -> list[int]:
    """Seed list syntax: '7', '0:20' (half-open range), or '1,2,5'."""
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise UsageError(f"bad --seeds {spec!r}; use 7, 0:20 or 1,2,5")
    return seeds


def _graph_params(args) -> dict:
    if not args.family:
        raise UsageError("no graph: give --family (or, with run, --graph FILE)")
    if args.family == "gnp":
        if args.p is None:
            raise UsageError("gnp needs --p")
        params = {"n": args.n, "p": args.p}
    elif args.family == "cycle_of_cliques":
        if args.n0 is None or args.n1 is None:
            raise UsageError("cycle_of_cliques needs --n0 and --n1")
        params = {"n0": args.n0, "n1": args.n1}
    else:
        if args.n is None:
            raise UsageError(f"{args.family} needs --n")
        params = {"n": args.n}
    return params


def _load_or_generate(args) -> tuple:
    if getattr(args, "graph", None):
        text = Path(args.graph).read_text(encoding="utf-8")
        return load(text), rec.GraphSource.from_file(args.graph, text)
    params = _graph_params(args)
    g = generate(args.family, params, args.weights, args.graph_seed)
    return g, rec.GraphSource.generator(args.family, params, args.weights,
                                        args.graph_seed)


def _add_generator_flags(p: argparse.ArgumentParser, seed_flags=("--graph-seed",)):
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float, help="edge probability for gnp")
    p.add_argument("--n0", type=int, help="cycle length for cycle_of_cliques")
    p.add_argument("--n1", type=int, help="clique size for cycle_of_cliques")
    p.add_argument("--weights", choices=WEIGHT_MODELS, default="unit")
    p.add_argument(*seed_flags, dest="graph_seed", type=int,
                   default=_default_seed())


def cmd_gen(args) -> int:
    g = generate(args.family, _graph_params(args), args.weights, args.graph_seed)
    text = save(g)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_run(args) -> int:
    if args.oracle_cap < 0:
        raise UsageError(f"--oracle-cap must be >= 0, got {args.oracle_cap}")
    g, source = _load_or_generate(args)
    if args.alg == "arb" and args.alpha is None:
        raise UsageError("algorithm 'arb' requires --alpha "
                         "(degeneracy is a safe surrogate; see `mwisim gen`)")
    params = {"eps": args.eps, "c": args.c, "lam": args.lam,
              "alpha": args.alpha, "log_base": args.log_base}
    out_records = []
    for seed in _parse_seeds(args.seeds):
        out_records.append(rec.make_record(
            g, source, args.alg, params, seed, mode=args.mode,
            oracle=args.oracle, oracle_cap=args.oracle_cap,
            dump_stack=args.dump_stack))
    text = rec.to_jsonl(out_records)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.csv:
        Path(args.csv).write_text(rec.to_csv(out_records), encoding="utf-8")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_acceptance_suite(quick=args.quick)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.json:
        payload = [{"name": r.name, "passed": r.passed, "detail": r.detail,
                    "seconds": round(r.seconds, 3)} for r in results]
        text = json.dumps(payload, indent=2, allow_nan=False)
        Path(args.json).write_text(text, encoding="utf-8")
    return EXIT_OK if not failed else EXIT_INVARIANT


def cmd_reduce(args) -> int:
    base = generate("cycle", {"n": args.n0}, "unit", 0)
    inner = as_inner("sparse", {"lam": args.lam}, "local")
    lines = []
    for seed in _parse_seeds(args.seeds):
        r = rand_mis(base, inner, args.n1, seed=seed, c_approx=args.c)
        lines.append(json.dumps({
            "n0": r.n0, "n1": r.n1, "seed": seed,
            "mis_size": len(r.mis.members), "mapped_size": len(r.mapped.members),
            "max_gap": r.gap, "inner_rounds": r.inner_stats.rounds,
            "inner_messages": r.inner_stats.messages_sent,
            "r_large": r.r_large, "r_small": r.r_small,
        }, sort_keys=True, allow_nan=False))
    text = "".join(line + "\n" for line in lines)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mwisim",
        description="CONGEST/LOCAL simulator and MaxIS approximation harness")
    sub = top.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    _add_generator_flags(p_gen, seed_flags=("--seed", "--graph-seed"))
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run an algorithm over a seed sweep")
    p_run.add_argument("--graph", help="graph file (alternative to --family)")
    _add_generator_flags(p_run)
    p_run.add_argument("--alg", required=True, choices=ALGORITHMS)
    p_run.add_argument("--eps", type=float)
    p_run.add_argument("--c", type=float)
    p_run.add_argument("--lam", type=float)
    p_run.add_argument("--alpha", type=int)
    p_run.add_argument("--log-base", choices=("two", "natural"), default="two")
    p_run.add_argument("--mode", choices=("congest", "local"), default="congest")
    p_run.add_argument("--seeds", default=str(_default_seed()))
    p_run.add_argument("--oracle", action="store_true",
                       help="compare against the exact solver (small graphs)")
    p_run.add_argument("--oracle-cap", type=int, default=BRUTE_FORCE_CAP,
                       help="largest n the exact solver accepts")
    p_run.add_argument("--dump-stack", action="store_true",
                       help="include the local-ratio stack in the record")
    p_run.add_argument("-o", "--output", help="JSONL output path (default stdout)")
    p_run.add_argument("--csv", help="also write a CSV projection")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the acceptance battery")
    p_ver.add_argument("suite", choices=("acceptance",))
    p_ver.add_argument("--quick", action="store_true",
                       help="reduced corpus sizes for a fast smoke run")
    p_ver.add_argument("--json", help="write machine-readable results here")
    p_ver.set_defaults(func=cmd_verify)

    p_red = sub.add_parser("reduce", help="cycle-of-cliques reduction runs")
    p_red.add_argument("--n0", type=int, required=True)
    p_red.add_argument("--n1", type=int, required=True)
    p_red.add_argument("--lam", type=float, default=4.0)
    p_red.add_argument("--c", type=float, default=8.0,
                       help="approximation constant for the diagnostic radii")
    p_red.add_argument("--seeds", default=str(_default_seed()))
    p_red.add_argument("-o", "--output")
    p_red.set_defaults(func=cmd_reduce)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, ValueError, OverflowError) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except EngineError as e:
        print(f"engine violation: {e}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
