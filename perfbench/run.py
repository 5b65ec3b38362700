"""mwisim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle-26 --seed 1 --seconds 40 --trace 0

Run from the repository root. The program is imported from ``src/``
(nothing is installed). With ``--trace 0`` the run measures the end-to-end
metrics named in ``BENCHMARK.json`` with tracing off; with ``--trace 1`` it
measures untraced passes for half the time, then one traced set-up and one
traced pass, and reports the per-layer metrics. End-to-end timings are
normalised to a reference host speed (``hostspeed.py``); the report keeps
the host seconds too. Every op's output is checked
outside the timed region. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
report, with environment and input shape, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` (spans to ``...-spans.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

perf = time.perf_counter


def import_seconds(modules: tuple[str, ...]) -> tuple[float, float]:
    """Import time of ``modules`` in a fresh interpreter (the user's cost):
    (normalised seconds, host seconds)."""
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "import hostspeed",
        "sys.path[0] = sys.argv[2]",
        "with hostspeed.Sampler(hostspeed.SETUP_PERIOD_S) as s:",
        "    t = [s.clock()]",
        *(f"    import {m}" for m in modules),
        "    t.append(s.clock())",
        "a, b = s.normalised(t)",
        "print(b - a, t[1] - t[0])",
    ])
    done = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR), str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    norm, host = done.stdout.split()[-2:]
    return float(norm), float(host)


def timed_setup(wl, seed: int) -> tuple[float, float]:
    """One set-up, import included: (normalised seconds, host seconds)."""
    imp_norm, imp_host = import_seconds(wl.imports)
    with hostspeed.Sampler(hostspeed.SETUP_PERIOD_S) as s:
        t = [s.clock()]
        wl.setup(seed)
        t.append(s.clock())
    a, b = s.normalised(t)
    return imp_norm + b - a, imp_host + t[1] - t[0]


def git_commit() -> str:
    """HEAD from ``.git`` in the checkout, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    from importlib import metadata

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "jsonschema": metadata.version("jsonschema"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "workload_seed": seed}


def op_latency(passes: list) -> dict[str, float]:
    """Median and p95 op latency, only when at least ten samples lie beyond
    the p95 (200 ops); workloads with a handful of long ops report none."""
    op_s = [t for p in passes for t in p.op_s]
    if len(op_s) < 200:
        return {}
    return {"op_p50_ms": statistics.median(op_s) * 1e3,
            "op_p95_ms": statistics.quantiles(op_s, n=20)[18] * 1e3,
            "op_samples": len(op_s)}


def measure(wl, budget_s: float) -> list:
    """Whole untraced passes: at least one, then more while another pass,
    estimated by the last one, still ends within ``budget_s``. Each pass
    runs under a ``hostspeed.Sampler``; its ``wall_s`` and ``op_s`` are
    normalised and ``host_s`` keeps the host seconds. Each pass is checked
    after it ends, outside the timed region."""
    from workloads import durations

    passes, spent, last = [], 0.0, 0.0
    while not passes or spent + last <= budget_s:
        t0 = perf()
        with hostspeed.Sampler() as s:
            p = wl.run_pass(clock=s.clock)
        last = perf() - t0
        spent += last
        p.host_s = p.wall_s
        p.wall_s, op_s = durations(s.normalised(p.marks))
        if len(op_s) == len(p.op_s):    # not verify-quick's criteria
            p.op_s = op_s
        wl.check_pass(p)
        p.outputs = None
        passes.append(p)
    return passes


def end_to_end(setup_s: list[float], passes: list) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sim_msgs_per_s": statistics.median(p.messages / p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(wl, seed: int, problems: list[str]):
    """One traced set-up and pass; returns (tracer, traced pass)."""
    from tracer import Tracer, restored

    tracer = Tracer()
    try:
        tracer.install()
        tracer.op = "setup"
        wl.setup(seed)
        tracer.op = None
        traced = wl.run_pass(tracer)
    finally:
        patches = tracer.uninstall()
    if not restored(patches):
        problems.append("tracer: an attribute was not restored after uninstall")
    # ledger reconciliation: engine spans under each op sum to its RoundStats
    ledger = tracer.engine_ledger_by_op()
    if wl.name == "verify-quick":
        expect = {"battery": [traced.rounds, traced.messages, traced.max_bits]}
    else:
        expect = {i: list(op_stats(out)) for i, out in enumerate(traced.outputs)}
    for op, want in expect.items():
        got = ledger.get(op, [0, 0, 0])
        if got != want:
            problems.append(f"ledger: op {op} engine spans {got} != returned {want}")
    # traced outputs must equal the untraced ones
    wl.check_pass(traced)
    traced.outputs = None
    return tracer, traced


def op_stats(out) -> tuple[int, int, int]:
    if isinstance(out, dict):       # a record
        r = out["result"]
        return r["rounds"], r["messages"], r["max_message_bits"]
    s = out.stats
    return s.rounds, s.messages_sent, s.max_message_bits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mwisim" / "__init__.py").is_file():
        print(f"error: no mwisim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mwisim
    if Path(mwisim.__file__).resolve().parent != SRC / "mwisim":
        print(f"error: mwisim imported from {mwisim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import selftest
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload)
    problems = [f"checker self-test: {p}" for p in selftest.checker_selftest()]

    setup_s, setup_host_s = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        norm, host = timed_setup(wl, args.seed)
        setup_s.append(norm)
        setup_host_s.append(host)
    shape = wl.shape()

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = measure(wl, budget)
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(args.seed), "input": shape}

    if args.trace:
        problems += [f"tracer self-test: {p}" for p in selftest.tracer_selftest()]
        tracer, traced = traced_run(wl, args.seed, problems)
        metrics = tracer.layer_metrics()
        base = statistics.median(p.host_s for p in passes)
        metrics["trace.overhead_frac"] = traced.wall_s / base - 1
        for i in range(1, 11):
            metrics[f"verify.C{i}_s"] = 0.0
        for i, (name, _) in enumerate(passes[0].criteria):
            metrics[f"verify.{name}_s"] = statistics.median(
                p.criteria[i][1] for p in passes)
        all_passes = passes + [traced]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{wl.name}-seed{args.seed}-trace1-spans.jsonl")
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(setup_s, passes)
        all_passes = passes
        wanted = spec["end_to_end"]

    attempted = sum(p.attempted for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    sims = {(p.rounds, p.messages, p.max_bits) for p in all_passes}
    if len(sims) != 1:
        problems.append(f"simulated counts differ between passes: {sorted(sims)}")
    rounds, messages, max_bits = next(iter(sims))
    report.update({
        "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
        "pass_host_s": [p.host_s for p in passes],
        "setup_s": setup_s, "setup_host_s": setup_host_s,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:50], "problems": problems,
        "sim_per_pass": {"engine.rounds": rounds, "engine.messages": messages,
                         "engine.max_message_bits": max_bits},
        "op_latency": op_latency(passes), "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"{wl.name} seed {args.seed} trace {args.trace}: {len(passes)} "
          f"untraced pass(es){' + 1 traced' if args.trace else ''}, "
          f"{attempted} ops, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.4g})")
    print("input: " + json.dumps(shape))
    print(f"host seconds (not normalised): setup median "
          f"{statistics.median(setup_host_s):.6g}, pass median "
          f"{statistics.median(p.host_s for p in passes):.6g}")
    print(f"simulated per pass: engine.rounds={rounds} engine.messages={messages} "
          f"engine.max_message_bits={max_bits}")
    for msg in (failures + problems)[:20]:
        print("FAIL " + msg)
    if report["op_latency"]:
        lat = report["op_latency"]
        print(f"op latency over {lat['op_samples']} untraced ops: op_p50_ms "
              f"{lat['op_p50_ms']:.6g} ms, op_p95_ms {lat['op_p95_ms']:.6g} ms")
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:28s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
