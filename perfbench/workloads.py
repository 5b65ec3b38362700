"""The three benchmark workloads.

Each workload is a closed loop with one client: a fixed list of ops built
from the workload seed at set-up, run one after another, the next op
starting when the previous one returns. ``run_pass`` times the ops with
``clock`` (``perf_counter`` unless a ``hostspeed.Sampler`` supplies one);
``check_pass`` verifies every output afterwards, outside the timed region.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from checks import check_outcome, check_record, is_connected, same_run
from tracer import ALGORITHMS, engine_ledger

perf = time.perf_counter


@dataclass
class PassResult:
    wall_s: float
    op_s: list[float]
    outputs: list[Any]
    # clock readings: the pass's start, then the end of each op (oracle-26,
    # gnp) or of the whole pass (verify-quick)
    marks: list[float]
    rounds: int
    messages: int
    max_bits: int
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    criteria: list[tuple[str, float]] = field(default_factory=list)
    # the pass time in host seconds when wall_s has been normalised
    host_s: float = 0.0


def _run_ops(ops: list[Callable[[], Any]], tracer=None,
             clock=perf) -> tuple[list[float], list[Any]]:
    marks, outputs = [clock()], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        outputs.append(op())
        marks.append(clock())
    if tracer is not None:
        tracer.op = None
    return marks, outputs


def durations(marks: list[float]) -> tuple[float, list[float]]:
    """(whole time, time of each op) from a pass's clock readings."""
    return marks[-1] - marks[0], [b - a for a, b in zip(marks, marks[1:])]


class Oracle26:
    """``mwisim run --oracle`` on small graphs: one record per op.

    Per-run fixed costs dominate (schema validation, degeneracy, induced
    rebuilds, engine set-up, per-node rng seeding, the exact oracle); the
    engine's per-message cost is negligible.
    """

    name = "oracle-26"
    imports = ("mwisim.records",)
    # 45 graphs x 8 algorithms = 360 ops per pass. Family, weight model, n,
    # gnp density and eps follow a fixed grid, so every seed gives the same
    # mix and only the graphs' realisations and the run seeds change.
    GRAPHS = 45
    FAMILIES = ("gnp", "cycle", "path", "tree", "star")
    WEIGHTS = ("unit", "uniform_range", "heavy_tail")
    EPS = (0.25, 0.5, 1.0)

    def __init__(self):
        # outputs of the first checked pass; later passes must reproduce them
        self._first: list | None = None

    def setup(self, seed: int) -> None:
        from mwisim import graphs, records

        rng = random.Random(seed)
        self.cases = []
        for i in range(self.GRAPHS):
            fam = self.FAMILIES[i % len(self.FAMILIES)]
            wm = self.WEIGHTS[i % len(self.WEIGHTS)]
            n = 18 + i % 9
            gseed = rng.getrandbits(32)
            if fam == "tree":
                # the CLI has no tree generator: a tree arrives as a file
                g = graphs.random_tree(n, gseed, wm)
                source = records.GraphSource.from_file(f"tree-{gseed}.txt",
                                                       graphs.save(g))
            else:
                gp = {"n": n, "p": 0.1 + 0.025 * (i // 5)} if fam == "gnp" else {"n": n}
                g = graphs.generate(fam, gp, wm, gseed)
                source = records.GraphSource.generator(fam, gp, wm, gseed)
            # as with `mwisim run`, the caller supplies alpha = degeneracy
            params = {"eps": self.EPS[i // 15], "c": None, "lam": None,
                      "alpha": max(1, graphs.degeneracy(g)), "log_base": "two"}
            for alg in ALGORITHMS:
                self.cases.append((g, source, alg, params, rng.getrandbits(32)))

    def ops(self) -> list[Callable[[], dict]]:
        from mwisim import records

        def op(g, source, alg, params, s):
            def run():
                rec = records.make_record(g, source, alg, params, s, oracle=True)
                records.to_jsonl([rec])
                return rec
            return run

        return [op(*case) for case in self.cases]

    def run_pass(self, tracer=None, clock=perf) -> PassResult:
        marks, outputs = _run_ops(self.ops(), tracer, clock)
        res = [r["result"] for r in outputs]
        return PassResult(*durations(marks), outputs, marks,
                          sum(r["rounds"] for r in res),
                          sum(r["messages"] for r in res),
                          max(r["max_message_bits"] for r in res),
                          attempted=len(outputs))

    def check_pass(self, p: PassResult) -> None:
        from mwisim import algorithms, records

        if self._first is None:
            # first pass: rerun each algorithm and check the exact bounds
            connected = {id(g): is_connected(g) for g, *_ in self.cases}
            for (g, _source, alg, params, s), rec in zip(self.cases, p.outputs):
                outcome = algorithms.run_algorithm(g, alg, params, s)
                for msg in check_record(rec, outcome, g, alg, connected[id(g)]):
                    p.failures.append(f"{alg} seed {s}: {msg}")
            self._first = p.outputs
            return
        # later passes repeat the same inputs and must reproduce the records
        for (_g, _source, alg, _params, s), a, b in zip(self.cases, self._first,
                                                        p.outputs):
            if not records.same_outcome(a, b):
                p.failures.append(f"{alg} seed {s}: rerun record differs")

    def shape(self) -> dict:
        from mwisim import graphs

        gs = {id(c[0]): c[0] for c in self.cases}.values()
        return {"graphs": len(gs), "ops_per_pass": len(self.cases),
                "n": [min(g.n for g in gs), max(g.n for g in gs)],
                "m": [min(g.m for g in gs), max(g.m for g in gs)],
                "max_degree": [min(g.max_degree for g in gs),
                               max(g.max_degree for g in gs)],
                "degeneracy": [min(graphs.degeneracy(g) for g in gs),
                               max(graphs.degeneracy(g) for g in gs)]}


class Gnp:
    """Every algorithm once per pass on one large G(n, p), heavy-tail weights.

    The engine's per-message path, graph memory and ``induced`` at scale
    dominate; the records layer is absent.
    """

    imports = ("mwisim.algorithms",)
    AVG_DEGREE = 16
    EPS = 0.5

    def __init__(self, n: int):
        self.n = n
        self.name = f"gnp-{n // 1024}k"
        self._first: list | None = None

    def setup(self, seed: int) -> None:
        from mwisim import graphs

        rng = random.Random(seed)
        p = self.AVG_DEGREE / (self.n - 1)
        self.g = graphs.generate("gnp", {"n": self.n, "p": p}, "heavy_tail",
                                 rng.getrandbits(32))
        self.degeneracy = graphs.degeneracy(self.g)
        eps = self.EPS
        self.params = {
            "heavy": {}, "sparse": {"lam": 4.0},
            "boost-heavy": {"eps": eps}, "boost-sparse": {"eps": eps, "lam": 4.0},
            "arb": {"eps": eps, "alpha": max(1, self.degeneracy)},
            "boppana": {"c": 2}, "fastld": {"eps": eps, "c": 2}, "luby": {},
        }
        self.seeds = {alg: rng.getrandbits(32) for alg in ALGORITHMS}
        self._connected: bool | None = None

    def connected(self) -> bool:
        if self._connected is None:
            self._connected = is_connected(self.g)
        return self._connected

    def ops(self) -> list[Callable[[], Any]]:
        from mwisim import algorithms

        def op(alg):
            return lambda: algorithms.run_algorithm(
                self.g, alg, self.params[alg], self.seeds[alg])

        return [op(alg) for alg in ALGORITHMS]

    def run_pass(self, tracer=None, clock=perf) -> PassResult:
        marks, outputs = _run_ops(self.ops(), tracer, clock)
        return PassResult(*durations(marks), outputs, marks,
                          sum(o.stats.rounds for o in outputs),
                          sum(o.stats.messages_sent for o in outputs),
                          max(o.stats.max_message_bits for o in outputs),
                          attempted=len(outputs))

    def check_pass(self, p: PassResult) -> None:
        from mwisim import algorithms

        for i, (alg, out) in enumerate(zip(ALGORITHMS, p.outputs)):
            resolved = algorithms.resolved_params(alg, self.params[alg], self.g)
            for msg in check_outcome(self.g, alg, resolved, out, self.connected()):
                p.failures.append(f"{alg}: {msg}")
            if self._first is not None and not same_run(self._first[i], out):
                p.failures.append(f"{alg}: rerun differs from the first pass")
        if self._first is None:
            self._first = p.outputs

    def shape(self) -> dict:
        return {"n": self.g.n, "m": self.g.m, "max_degree": self.g.max_degree,
                "degeneracy": self.degeneracy, "connected": self.connected(),
                "ops_per_pass": len(ALGORITHMS)}


class VerifyQuick:
    """``verify.run_acceptance_suite(quick=True)``: the gate users run.

    Its corpora are fixed by the battery (re-seeding them is forbidden), so
    the workload seed does not apply. It is the only workload that runs the
    sequential mirrors (C5, C6) and the cycle-of-cliques reduction (C9).
    One op is one criterion; a failed op is a criterion that did not PASS.
    """

    name = "verify-quick"
    imports = ("mwisim.verify",)

    def setup(self, seed: int) -> None:
        pass

    def run_pass(self, tracer=None, clock=perf) -> PassResult:
        from mwisim import verify

        totals = [0, 0, 0]
        with engine_ledger(totals):
            if tracer is not None:
                tracer.op = "battery"
            marks = [clock()]
            results = verify.run_acceptance_suite(quick=True)
            marks.append(clock())
            if tracer is not None:
                tracer.op = None
        # C2 and C4 are tallies over other criteria's runs and take no time
        op_s = [r.seconds for r in results if r.seconds > 0]
        return PassResult(marks[1] - marks[0], op_s, results, marks,
                          totals[0], totals[1], totals[2],
                          attempted=len(results),
                          criteria=[(r.name.split()[0], r.seconds) for r in results])

    def check_pass(self, p: PassResult) -> None:
        for r in p.outputs:
            if not r.passed:
                p.failures.append(r.line())

    def shape(self) -> dict:
        return {"criteria": 10, "quick": True,
                "note": "fixed corpora; the workload seed does not apply"}


def make(name: str):
    if name == "oracle-26":
        return Oracle26()
    if name == "gnp-32k":
        return Gnp(32768)
    if name == "verify-quick":
        return VerifyQuick()
    raise KeyError(name)


WORKLOADS = ("oracle-26", "gnp-32k", "verify-quick")
