"""The acceptance battery behind `mwisim verify` and the tests.

Every guarantee with an exact integer form is asserted with zero tolerance
(cross-multiplied fractions, no floats). The two statistical checks
(sparsifier degree/weight, one-round ranking size) use calibrated pass-rate
thresholds at fixed desk-scale parameters.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .algorithms import as_inner, run_algorithm
from .arb import arb_phase_count
from .boost import PhaseFrame, check_stack_property, phase_count
from .cliquecycle import rand_mis
from .engine import RoundStats, run
from .graphs import (WeightedGraph, brute_force_max_is, degeneracy, generate,
                     neighbor_reduce, random_tree)
from .heavy import heavy_mis_approx
from .mis import LubyProgram, mis_violation
from .ranking import boppana_once, check_perm_equivalence
from .records import GraphSource, make_record, replay, same_outcome
from .rng import derive_seed
from .sparsify import (ProfileProgram, compute_sampling_profile,
                       sample_subgraph, sparse_approx)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} [{self.seconds:.1f}s]"


@dataclass
class _Tally:
    """Cross-criterion counters (stack property, round accounting, budgets)."""

    stack_checked: int = 0
    stack_failed: int = 0
    rounds_checked: int = 0
    rounds_failed: int = 0
    budget_checked: int = 0
    budget_failed: int = 0

    def note_stack(self, ok: bool):
        self.stack_checked += 1
        self.stack_failed += 0 if ok else 1

    def note_rounds(self, ok: bool):
        self.rounds_checked += 1
        self.rounds_failed += 0 if ok else 1

    def note_budget(self, stats: RoundStats):
        if stats.budget_bits is not None:
            self.budget_checked += 1
            if stats.max_message_bits > stats.budget_bits:
                self.budget_failed += 1


def _timed(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def _connected(g: WeightedGraph) -> bool:
    """Whether a frontier grown over the CSR rows from position 0 reaches every node."""
    ptr, nbr = (a.tolist() for a in g.csr())
    seen = {0} if g.n else set()
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        reached = set(nbr[ptr[v]:ptr[v + 1]]) - seen
        seen |= reached
        frontier.extend(reached)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# corpora


def mixed_corpus(count: int, n_lo: int, n_hi: int, master: int,
                 connected: bool = False, low_degeneracy: bool = False,
                 ) -> list[WeightedGraph]:
    """Deterministic stream of graphs across families and weight models."""
    rng = random.Random(derive_seed(master, 0xC0B))
    out: list[WeightedGraph] = []
    attempt = 0
    families = (["tree", "path", "cycle", "star", "gnp", "gnp"]
                if low_degeneracy else
                ["gnp", "gnp", "tree", "cycle", "path", "star", "clique"])
    while len(out) < count:
        attempt += 1
        fam = families[attempt % len(families)]
        wm = ("unit", "uniform_range", "heavy_tail")[attempt % 3]
        n = rng.randint(n_lo, n_hi)
        gseed = derive_seed(master, attempt)
        if fam == "tree":
            g = random_tree(max(n, 2), gseed, wm)
        elif fam == "cycle":
            g = generate("cycle", {"n": max(n, 3)}, wm, gseed)
        elif fam == "clique":
            g = generate("clique", {"n": min(n, 40)}, wm, gseed)
        elif fam == "gnp":
            if low_degeneracy:
                p = min(1.0, rng.uniform(1.0, 2.5) / max(n - 1, 1))
            else:
                p = rng.uniform(0.05, 0.4)
            g = generate("gnp", {"n": n, "p": p}, wm, gseed)
        else:
            g = generate(fam, {"n": n}, wm, gseed)
        if connected and not _connected(g):
            continue
        out.append(g)
    return out


def _tree_certificate(n: int, edges: list[tuple[int, int]]) -> str:
    """AHU canonical string, rooted at the tree center(s)."""
    if n == 1:
        return "()"
    adj = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = {v: len(adj[v]) for v in range(n)}
    alive = set(range(n))
    layer = [v for v in range(n) if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in adj[v]:
                if u in alive:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt

    def enc(v: int, parent: int) -> str:
        return "(" + "".join(sorted(enc(u, v) for u in adj[v] if u != parent)) + ")"

    return min(enc(c, -1) for c in alive)


def all_trees_upto(n_max: int) -> list[WeightedGraph]:
    """One representative per isomorphism class of trees on 1..n_max nodes.

    Every tree on n + 1 nodes is a tree on n nodes plus a leaf, so each size
    hangs a leaf on every node of the previous size's representatives and
    keeps the first tree per canonical certificate.
    """
    out = []
    level: list[list[tuple[int, int]]] = [[]]  # edge lists of the trees on n nodes
    for n in range(1, n_max + 1):
        if n > 1:
            grown: dict[str, list[tuple[int, int]]] = {}
            for edges in level:
                for v in range(n - 1):
                    tree = [*edges, (v, n - 1)]
                    grown.setdefault(_tree_certificate(n, tree), tree)
            level = list(grown.values())
        out.extend(WeightedGraph(range(n), e, {v: 1 for v in range(n)}) for e in level)
    return out


# ---------------------------------------------------------------------------
# acceptance criteria

EPS_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(1))


def _c1_warmup(tally: _Tally, quick: bool) -> tuple[bool, str]:
    count = 100 if quick else 1000
    corpus = mixed_corpus(count, 3, 200, master=0xAC01)
    bad_bound = 0
    bad_mis = 0
    slow_luby = 0
    for i, g in enumerate(corpus):
        r = heavy_mis_approx(g, seed=derive_seed(0x1EAF, i))
        tally.note_budget(r.stats)
        if not r.diagnostics["mis_valid"]:
            bad_mis += 1
            continue
        if 4 * (g.max_degree + 1) * r.iset.weight < g.total_weight():
            bad_bound += 1
        luby_rounds = r.stats.rounds - 2
        if luby_rounds > 8 * math.log2(max(g.n, 2)):
            slow_luby += 1
    round_rate_ok = slow_luby <= 0.01 * count
    ok = bad_bound == 0 and bad_mis == 0 and round_rate_ok
    return ok, (f"{count} runs: {bad_bound} bound violations, {bad_mis} invalid "
                f"MIS, {slow_luby} over the 8*log2(n) round budget")


def _c3_boost(tally: _Tally, quick: bool) -> tuple[bool, str]:
    graphs = 56 if quick else 170
    corpus = mixed_corpus(graphs, 4, 24, master=0xAC03, connected=True)
    runs = 0
    bad = []
    for i, g in enumerate(corpus):
        opt = brute_force_max_is(g).weight
        delta = g.max_degree
        for j, eps in enumerate(EPS_GRID):
            runs += 1
            r = run_algorithm(g, "boost-heavy", {"eps": float(eps), "c": 8.0},
                              seed=derive_seed(0xB003, 1000 * i + j))
            tally.note_budget(r.stats)
            tally.note_stack(check_stack_property(r.iset, r.stack))
            t = phase_count(8.0, float(eps))
            d = r.diagnostics
            tally.note_rounds(
                d["phases"] == t
                and r.stats.rounds <= t * (d["inner_rounds_max"] + 2))
            w = r.iset.weight
            if (1 + eps) * delta * w < opt:
                bad.append(f"ratio graph#{i} eps={eps}")
            if (1 + eps) * (delta + 1) * w < g.total_weight():
                bad.append(f"fraction graph#{i} eps={eps}")
            # covering fact: every pushed node sees the final set next door
            pushed = g.mask(np.concatenate([f.ids for f in r.stack]).tolist())
            violation = mis_violation(g, pushed, g.mask(r.iset.members))
            if violation:
                bad.append(f"cover graph#{i} eps={eps}: {violation}")
    return not bad, (f"{runs} boost runs vs oracle: "
                     + (f"{len(bad)} violations, first: {bad[0]}" if bad
                        else "all ratio and fraction bounds hold exactly"))


def _c5_sparsifier(tally: _Tally, quick: bool) -> tuple[bool, str]:
    seeds = 10 if quick else 50
    n, p, lam = 4096, 0.04, 4.0
    log2n = 12  # log2(4096), exact
    deg_ok = 0
    weight_ok = 0
    for s in range(seeds):
        g = generate("gnp", {"n": n, "p": p}, "heavy_tail", derive_seed(0xAC05, s))
        if s == 0:
            # the profile kernel against the per-node reference interpreter at
            # full scale on the seed-0 graph, plus one complete CONGEST
            # pipeline run for the budget ledger
            prof_out, prof_stats = run(g, ProfileProgram(lam), seed=derive_seed(0xAC05, 1))
            tally.note_budget(prof_stats)
            ref = run(g, ProfileProgram(lam), seed=derive_seed(0xAC05, 1), node_order=list)
            engine_matches = np.array_equal(prof_out, ref[0]) and prof_stats == ref[1]
            r = sparse_approx(g, lam=lam, seed=derive_seed(0x5A17, 10**6))
            tally.note_budget(r.stats)
        profile = compute_sampling_profile(g, lam)
        keep = np.zeros(g.n, dtype=bool)
        keep[sample_subgraph(g, profile, derive_seed(0x5A17, s))] = True
        h = g.induced(keep)
        delta_h = h.max_degree
        w_v = g.total_weight()
        w_h = h.total_weight()
        delta = g.max_degree
        if delta_h <= 10 * log2n:
            deg_ok += 1
        # w(V_H) >= (1/8) min(w(V), w(V) * log2 n / Delta), exact integers
        bound_weight = 8 * delta * w_h >= log2n * w_v
        bound_all = 8 * w_h >= w_v
        if bound_weight or bound_all:
            weight_ok += 1
    need = math.ceil(0.98 * seeds)
    ok = deg_ok >= need and weight_ok >= need and engine_matches and r.diagnostics["mis_valid"]
    return ok, (f"{seeds} seeds: degree bound {deg_ok}/{seeds}, weight bound "
                f"{weight_ok}/{seeds} (need {need}), engine/sequential profile "
                f"match: {engine_matches}")


def _c6_equivalence(quick: bool) -> tuple[bool, str]:
    n_max = 6 if quick else 7
    rand_count = 50 if quick else 200
    corpus = all_trees_upto(n_max)
    for n in range(3, n_max + 1):
        corpus.append(generate("cycle", {"n": n}, "unit", 0))
    rng = random.Random(0xAC06)
    for k in range(rand_count):
        n = rng.randint(2, n_max)
        p = rng.uniform(0.2, 0.8)
        corpus.append(generate("gnp", {"n": n, "p": p}, "unit",
                               derive_seed(0xAC06, k)))
    failures = sum(not check_perm_equivalence(g) for g in corpus)
    return failures == 0, (f"{len(corpus)} graphs (trees, cycles, {rand_count} "
                           f"random) x all permutations: {failures} mismatches")


def _c7_ranking_size(tally: _Tally, quick: bool) -> tuple[bool, str]:
    seeds = 30 if quick else 300
    n, p = 4096, 0.01
    good = 0
    regime_bad = 0
    for s in range(seeds):
        g = generate("gnp", {"n": n, "p": p}, "unit", derive_seed(0xAC07, s))
        r = boppana_once(g, c=2, seed=derive_seed(0x0B0B, s))
        tally.note_budget(r.stats)
        delta = g.max_degree
        if delta > n / math.log2(n):
            regime_bad += 1
        if 8 * (delta + 1) * len(r.iset.members) >= n:
            good += 1
    need = math.ceil(0.99 * seeds)
    ok = good >= need and regime_bad == 0
    return ok, (f"{seeds} one-round runs: size bound in {good}/{seeds} "
                f"(need {need}), {regime_bad} out of the low-degree regime")


def _replayed_sizes(g: WeightedGraph, stack: tuple[PhaseFrame, ...],
                    cap: int) -> list[int] | None:
    """An ``arb`` run's ``sizes``, replayed from its stack over all of ``g``
    in exact integers: each frame's reduction, then the drop of the nodes of
    residual degree at most ``cap``. None if a frame's nodes did not push
    their residuals. It reads the CSR, as every check does, not ``adj``."""
    w = np.maximum(g.w, 0).astype(object)  # residuals by position, 0 once gone
    sizes = [int(np.count_nonzero(w))]
    for f in stack:
        at = g._ids.searchsorted(f.ids)
        if w[at].tolist() != f.pushed.tolist():
            return None
        low = neighbor_reduce(g, np.add, (w > 0).astype(np.int64)) <= cap
        chosen = np.zeros(g.n, dtype=object)
        chosen[at] = w[at]
        w = w - neighbor_reduce(g, np.add, chosen)
        w[at] = 0
        w[(w < 0) | low] = 0
        sizes.append(int(np.count_nonzero(w)))
    return sizes


def _c8_arb(tally: _Tally, quick: bool) -> tuple[bool, str]:
    count = 30 if quick else 300
    corpus = mixed_corpus(count, 4, 24, master=0xAC08, low_degeneracy=True)
    bad = []
    eps = Fraction(1, 2)
    for i, g in enumerate(corpus):
        alpha = max(1, degeneracy(g))
        opt = brute_force_max_is(g).weight
        r = run_algorithm(g, "arb", {"alpha": alpha, "eps": float(eps)},
                          seed=derive_seed(0xA4B, i))
        sizes = r.diagnostics["sizes"]
        tally.note_budget(r.stats)
        tally.note_stack(check_stack_property(r.iset, r.stack))
        if 8 * (1 + eps) * alpha * r.iset.weight < opt:
            bad.append(f"ratio graph#{i}")
        if sizes[-1] != 0:
            bad.append(f"not empty graph#{i}")
        for a, b in zip(sizes, sizes[1:]):
            if 2 * b > a:
                bad.append(f"halving graph#{i}")
                break
        if r.diagnostics["phases"] != arb_phase_count(g.n):
            bad.append(f"phase count graph#{i}")
        replayed = _replayed_sizes(g, r.stack, 4 * alpha)
        if replayed is None or replayed != sizes[:len(replayed)]:
            bad.append(f"stack replay graph#{i}")
    return not bad, (f"{count} runs (alpha = degeneracy): "
                     + (f"{len(bad)} violations, first: {bad[0]}" if bad
                        else "ratio, halving, emptiness and the stack replay all hold"))


def _c9_reduction(quick: bool) -> tuple[bool, str]:
    seeds = 5 if quick else 50
    failures = []
    total = 0
    inner = as_inner("sparse", {"lam": 4.0}, "local")
    for n0, n1 in ((32, 16), (64, 8)):
        base = generate("cycle", {"n": n0}, "unit", 0)
        for s in range(seeds):
            total += 1
            try:
                rand_mis(base, inner, n1, seed=derive_seed(0xAC09, 1000 * n0 + s))
            except Exception as e:  # any failure counts against the criterion
                failures.append(f"(n0={n0}, n1={n1}, seed {s}): {e}")
    return not failures, (f"{total} reduction runs: "
                          + (f"{len(failures)} failures, first {failures[0]}"
                             if failures else
                             "every run produced a verified MIS of the cycle"))


def _c10_contracts(tally: _Tally) -> tuple[bool, str]:
    problems = []
    g = generate("gnp", {"n": 60, "p": 0.12}, "uniform_range", 99)
    source = GraphSource.generator("gnp", {"n": 60, "p": 0.12}, "uniform_range", 99)
    sweep = [
        ("heavy", {}),
        ("sparse", {"lam": 4.0}),
        ("boost-heavy", {"eps": 0.5}),
        ("boost-sparse", {"eps": 0.5, "lam": 4.0}),
        ("arb", {"eps": 0.5}),
        ("boppana", {"c": 2}),
        ("fastld", {"eps": 0.5, "c": 2}),
        ("luby", {}),
    ]
    for name, params in sweep:
        a = make_record(g, source, name, params, seed=7, oracle=False)
        b = make_record(g, source, name, params, seed=7, oracle=False)
        if not same_outcome(a, b):
            problems.append(f"{name}: two runs differ")
        c = replay(a)
        if not same_outcome(a, c):
            problems.append(f"{name}: replay differs")
    # schedule independence: the interpreter under shuffled step orders must
    # match the kernel, which has no order
    g2 = generate("gnp", {"n": 40, "p": 0.2}, "uniform_range", 5)
    base_out, base_stats = run(g2, LubyProgram(), seed=11)
    for k in range(3):
        shuffler = random.Random(k)

        def order(nodes, _s=shuffler):
            nodes = list(nodes)
            _s.shuffle(nodes)
            return nodes

        out, stats = run(g2, LubyProgram(), seed=11, node_order=order)
        if not np.array_equal(out, base_out) or stats != base_stats:
            problems.append(f"schedule dependence under shuffle #{k}")
    if tally.budget_checked == 0 or tally.budget_failed:
        problems.append(
            f"budget: {tally.budget_failed}/{tally.budget_checked} over budget")
    ok = not problems
    return ok, (f"replay + determinism over {len(sweep)} algorithms, budget OK in "
                f"{tally.budget_checked - tally.budget_failed}/{tally.budget_checked} "
                f"runs" + ("" if ok else f"; problems: {problems}"))


def run_acceptance_suite(quick: bool = False) -> list[CheckResult]:
    """All ten criteria; cross-criterion tallies feed criteria 2, 4, and 10."""
    tally = _Tally()
    c1 = _timed("C1 warm-up guarantee w(I) >= w(V)/(4(D+1))",
                lambda: _c1_warmup(tally, quick))
    c3 = _timed("C3 boosting ratio vs brute-force oracle",
                lambda: _c3_boost(tally, quick))
    c5 = _timed("C5 sparsifier degree and weight statistics",
                lambda: _c5_sparsifier(tally, quick))
    c6 = _timed("C6 ranking permutation equivalence (exhaustive)",
                lambda: _c6_equivalence(quick))
    c7 = _timed("C7 one-round ranking size bound",
                lambda: _c7_ranking_size(tally, quick))
    c8 = _timed("C8 arboricity 8(1+eps)alpha approximation",
                lambda: _c8_arb(tally, quick))
    c9 = _timed("C9 cycle-of-cliques reduction validity",
                lambda: _c9_reduction(quick))
    c2 = CheckResult(
        "C2 stack property on every boost/arb run",
        tally.stack_checked > 0 and tally.stack_failed == 0,
        f"exact w(I) >= sum of pushed residuals in "
        f"{tally.stack_checked - tally.stack_failed}/{tally.stack_checked} runs",
        0.0)
    c4 = CheckResult(
        "C4 round accounting t = ceil(c/eps), rounds <= t(T+2)",
        tally.rounds_checked > 0 and tally.rounds_failed == 0,
        f"held in {tally.rounds_checked - tally.rounds_failed}"
        f"/{tally.rounds_checked} boost runs",
        0.0)
    c10 = _timed("C10 engine contracts: budget, determinism, replay",
                 lambda: _c10_contracts(tally))
    return [c1, c2, c3, c4, c5, c6, c7, c8, c9, c10]
