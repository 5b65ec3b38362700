"""Command-line harness: generate graphs, run experiments, verify guarantees.

Exit codes: 0 success, 2 usage error, 3 invariant/verification failure,
4 engine contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import records as rec
from .algorithms import ALGORITHMS, UsageError, as_inner
from .cliquecycle import rand_mis
from .engine import EngineError
from .graphs import (BRUTE_FORCE_CAP, FAMILIES, WEIGHT_MODELS, GraphError,
                     generate, load, save)
from .sparsify import DEFAULT_LAMBDA

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_ENGINE = 4


def _parse_seeds(spec: str) -> Sequence[int]:
    """Seed list syntax: '7', '0:20' (half-open range, kept lazy, so a wide
    one costs nothing until it runs), or '1,2,5'."""
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            seeds = range(int(lo), int(hi))
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
    if args.family == "cycle_of_cliques":
        if args.n0 is None or args.n1 is None:
            raise UsageError("cycle_of_cliques needs --n0 and --n1")
        return {"n0": args.n0, "n1": args.n1}
    if args.n is None:
        raise UsageError(f"{args.family} needs --n")
    if args.family != "gnp":
        return {"n": args.n}
    if args.p is None:
        raise UsageError("gnp needs --p")
    return {"n": args.n, "p": args.p}


# the generator flags other than --family, by their argparse names; each
# defaults to None, so that one given with --graph can be refused
GENERATOR_FLAGS = {"--n": "n", "--p": "p", "--n0": "n0", "--n1": "n1",
                   "--weights": "weights", "--graph-seed": "graph_seed"}


def _generator_inputs(args) -> tuple:
    """``(family, params, weights, graph seed)``: an absent ``--weights`` is
    ``unit`` and an absent ``--graph-seed`` is 0."""
    weights = "unit" if args.weights is None else args.weights
    seed = 0 if args.graph_seed is None else args.graph_seed
    return args.family, _graph_params(args), weights, seed


def _load_or_generate(args) -> tuple:
    if args.graph is not None:
        if args.family:
            raise UsageError("--graph and --family are two graph sources: drop "
                             "--family to run on the file, or --graph to generate")
        for flag, name in GENERATOR_FLAGS.items():
            if getattr(args, name) is not None:
                raise UsageError(f"{flag} shapes a generated graph, and --graph "
                                 f"reads one from its file: drop {flag}")
        text = Path(args.graph).read_text(encoding="utf-8")
        return load(text), rec.GraphSource.from_file(args.graph, text)
    inputs = _generator_inputs(args)
    return generate(*inputs), rec.GraphSource.generator(*inputs)


def _add_generator_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float, help="edge probability for gnp")
    p.add_argument("--n0", type=int, help="cycle length for cycle_of_cliques")
    p.add_argument("--n1", type=int, help="clique size for cycle_of_cliques")
    p.add_argument("--weights", choices=WEIGHT_MODELS, help="default: unit")
    p.add_argument("--graph-seed", type=int, help="default: 0")


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    _emit(save(generate(*_generator_inputs(args))), args.output)
    return EXIT_OK


def cmd_run(args) -> int:
    if args.oracle_cap < 0:
        raise UsageError(f"--oracle-cap must be >= 0, got {args.oracle_cap}")
    g, source = _load_or_generate(args)
    if args.alg == "arb" and args.alpha is None:
        raise UsageError("algorithm 'arb' requires --alpha (degeneracy is a safe "
                         "surrogate: see the `degeneracy` of any `mwisim run` record)")
    params = {"eps": args.eps, "c": args.c, "lam": args.lam, "alpha": args.alpha}
    out_records = []
    for seed in _parse_seeds(args.seeds):
        out_records.append(rec.make_record(
            g, source, args.alg, params, seed, mode=args.mode,
            oracle=args.oracle, oracle_cap=args.oracle_cap,
            dump_stack=args.dump_stack))
    _emit(rec.to_jsonl(out_records), args.output)
    if args.csv:
        Path(args.csv).write_text(rec.to_csv(out_records), encoding="utf-8")
    if args.alg == "arb":
        for r in out_records:
            _warn_if_arb_left_nodes(r)
    return EXIT_OK


def _warn_if_arb_left_nodes(record: dict) -> None:
    """An ``arb`` run whose phases end with nodes left never offered them
    to the inner algorithm: alpha is below the input's arboricity, the set
    need not be maximal, and the record's bound does not hold."""
    left = record["diagnostics"]["sizes"][-1]
    if left:
        alpha = record["algorithm"]["alpha"]
        print(f"warning: arb seed {record['seed']}: {left} of {record['n']} nodes were "
              f"never offered to the inner algorithm, since alpha {alpha} is below the "
              f"graph's arboricity (its degeneracy is {record['degeneracy']}); the "
              f"8(1+eps)*alpha bound does not apply to this record", file=sys.stderr)


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
        r = rand_mis(base, inner, args.n1, seed=seed)
        d = r.diagnostics
        lines.append(json.dumps({
            "n0": args.n0, "n1": args.n1, "seed": seed,
            "mis_size": len(r.iset), "mapped_size": len(d["mapped"]),
            "max_gap": d["max_gap"], "inner_rounds": r.stats.rounds,
            "inner_messages": r.stats.messages_sent,
            "r_large": d["r_large"], "r_small": d["r_small"],
        }, sort_keys=True, allow_nan=False))
    _emit("".join(line + "\n" for line in lines), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # no prefix spellings: every flag is spelled one way
    top = argparse.ArgumentParser(
        prog="mwisim", allow_abbrev=False,
        description="CONGEST/LOCAL simulator and MaxIS approximation harness")
    sub = top.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph file", allow_abbrev=False)
    _add_generator_flags(p_gen)
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run an algorithm over a seed sweep",
                           allow_abbrev=False)
    p_run.add_argument("--graph", help="graph file (alternative to --family)")
    _add_generator_flags(p_run)
    p_run.add_argument("--alg", required=True, choices=ALGORITHMS)
    p_run.add_argument("--eps", type=float)
    p_run.add_argument("--c", type=float)
    p_run.add_argument("--lam", type=float)
    p_run.add_argument("--alpha", type=int)
    p_run.add_argument("--mode", choices=("congest", "local"), default="congest")
    p_run.add_argument("--seeds", default="0")
    p_run.add_argument("--oracle", action="store_true",
                       help="compare against the exact solver (small graphs)")
    p_run.add_argument("--oracle-cap", type=int, default=BRUTE_FORCE_CAP,
                       help="largest n the exact solver accepts")
    p_run.add_argument("--dump-stack", action="store_true",
                       help="include the local-ratio stack in the record")
    p_run.add_argument("-o", "--output", help="JSONL output path (default stdout)")
    p_run.add_argument("--csv", help="also write a CSV projection")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the acceptance battery",
                           allow_abbrev=False)
    p_ver.add_argument("suite", choices=("acceptance",))
    p_ver.add_argument("--quick", action="store_true",
                       help="reduced corpus sizes for a fast smoke run")
    p_ver.add_argument("--json", help="write machine-readable results here")
    p_ver.set_defaults(func=cmd_verify)

    p_red = sub.add_parser("reduce", help="cycle-of-cliques reduction runs",
                           allow_abbrev=False)
    p_red.add_argument("--n0", type=int, required=True)
    p_red.add_argument("--n1", type=int, required=True)
    p_red.add_argument("--lam", type=float, default=DEFAULT_LAMBDA)
    p_red.add_argument("--seeds", default="0")
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
