"""Self-tests of the benchmark's own machinery, on small inputs.

* ``checker_selftest``: honest outcomes pass the exact checks, and doctored
  ones (an adjacent pair, a weight below the bound, a non-maximal MIS, an
  oracle value below the set's weight) are counted as failures by the same
  ``check_pass`` path the workloads use.
* ``tracer_selftest``: install patches every target, uninstall restores
  each original object (``is`` identity), traced and untraced runs on the
  same input return identical sets and ``RoundStats``, and the engine spans
  of each run sum exactly to its ``RoundStats``.

Run both from the repository root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path


def _honest_and_doctored_gnp() -> list[str]:
    from mwisim.graphs import IndependentSet

    import workloads

    problems = []
    wl = workloads.Gnp(64)
    wl.setup(7)
    honest = wl.run_pass()
    wl.check_pass(honest)
    if honest.failures:
        problems.append(f"honest gnp outcomes flagged: {honest.failures}")

    g = wl.g
    outs = list(honest.outputs)
    heavy, boost, luby = outs[0], outs[2], outs[-1]
    # heavy: weight below the 4(D+1) bound
    outs[0] = dataclasses.replace(heavy, iset=IndependentSet(frozenset(), 0))
    # boost-heavy: an adjacent pair
    u = next(v for v in g.nodes if g.adj[v])
    pair = frozenset(boost.iset.members | {u, g.adj[u][0]})
    outs[2] = dataclasses.replace(
        boost, iset=IndependentSet(pair, g.total_weight(pair)))
    # luby: one member dropped, so the set is no longer maximal
    short = frozenset(sorted(luby.iset.members)[1:])
    outs[-1] = dataclasses.replace(
        luby, iset=IndependentSet(short, g.total_weight(short)))
    wl._first = None            # judge the doctored pass on its own
    doctored = dataclasses.replace(honest, outputs=outs, failures=[])
    wl.check_pass(doctored)
    expected = {"heavy": "4(D+1)w(I) < w(V)", "boost-heavy": "not independent",
                "luby": "not a maximal independent set"}
    failed = {f.split(":")[0] for f in doctored.failures}
    if failed != set(expected):
        problems.append(f"doctored ops counted as failed: {sorted(failed)}, "
                        f"expected {sorted(expected)}")
    for alg, text in expected.items():
        if not any(f.startswith(alg + ":") and text in f for f in doctored.failures):
            problems.append(f"{alg}: doctored outcome not reported as '{text}'")
    return problems


def _doctored_oracle_record() -> list[str]:
    import workloads

    problems = []
    wl = workloads.Oracle26()
    wl.setup(7)
    wl.cases = wl.cases[:8]
    p = wl.run_pass()
    rec = p.outputs[0]
    rec["oracle"] = dict(rec["oracle"], opt=rec["result"]["weight"] - 1)
    wl.check_pass(p)
    if len(p.failures) != 1 or "below w(I)" not in p.failures[0]:
        problems.append(f"oracle OPT below w(I) not counted once: {p.failures}")
    return problems


def checker_selftest() -> list[str]:
    return _honest_and_doctored_gnp() + _doctored_oracle_record()


def tracer_selftest() -> list[str]:
    from mwisim import algorithms, engine, graphs

    from checks import same_run
    from tracer import Tracer, restored
    from workloads import ALGORITHMS

    problems = []
    g = graphs.generate("gnp", {"n": 40, "p": 0.15}, "uniform_range", 11)
    params = {"eps": 0.5, "lam": 4.0, "c": None, "alpha": graphs.degeneracy(g)}
    plain = [algorithms.run_algorithm(g, alg, params, 3) for alg in ALGORITHMS]
    original_run = engine.run_on_subgraph
    tracer = Tracer()
    try:
        tracer.install()
        if not tracer.patches or any(vars(owner)[name] is orig
                                     for owner, name, orig in tracer.patches):
            problems.append("install left a target unpatched")
        traced = []
        for i, alg in enumerate(ALGORITHMS):
            tracer.op = i
            traced.append(algorithms.run_algorithm(g, alg, params, 3))
    finally:
        patches = tracer.uninstall()
    if not restored(patches) or engine.run_on_subgraph is not original_run:
        problems.append("uninstall did not restore every original object")
    ledger = tracer.engine_ledger_by_op()
    for i, alg in enumerate(ALGORITHMS):
        if not same_run(plain[i], traced[i]):
            problems.append(f"{alg}: traced run differs from the untraced run")
        s = traced[i].stats
        if ledger.get(i) != [s.rounds, s.messages_sent, s.max_message_bits]:
            problems.append(f"{alg}: engine spans {ledger.get(i)} do not sum to "
                            f"its RoundStats")
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    problems = checker_selftest() + tracer_selftest()
    for p in problems:
        print("FAIL " + p)
    print("self-tests: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
