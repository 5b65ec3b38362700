"""Weighted sparsification: sample a low-degree subgraph that keeps weight.

Each node joins the sample with probability

    p(v) = min(lambda * log n * (1/delta(v) + w(v)/w_max(v)), 1)

where delta(v) is the maximum degree and w_max(v) the maximum weighted
degree over the inclusive neighborhood. The 1/delta term keeps enough nodes
for the unweighted count, the w/w_max term rescues heavy nodes: any node
carrying a constant fraction of its best nearby neighborhood weight is kept
deterministically. Two CONGEST rounds compute the profile; the Bernoulli
draws are local coin flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import Broadcast, NodeContext, RoundStats, StepResult, run
from .graphs import GraphError, IndependentSet, WeightedGraph
from .heavy import heavy_mis_approx
from .rng import derive_seed, node_uniform
from .wire import Message

TAG_DEGW = 7
TAG_WDEG = 8

SAMPLE_SALT = 0x5A3B1E
LOG_BASES = ("two", "natural")
DEFAULT_LAMBDA = 4.0


def _log_n(n_upper: int, log_base: str) -> float:
    if log_base not in LOG_BASES:
        raise GraphError(f"unknown log base {log_base!r}; choose from {LOG_BASES}")
    n = max(n_upper, 2)
    return math.log2(n) if log_base == "two" else math.log(n)


def sampling_probability(weight: int, delta: int, wmax: int, lam: float,
                         n_upper: int, log_base: str = "two") -> float:
    """The clamped per-node probability; degenerate denominators give 1.

    delta = 0 (isolated) or wmax = 0 (weightless 2-neighborhood) means the
    node is free to keep, so p = 1.
    """
    if lam <= 0:
        raise GraphError(f"lambda must be > 0, got {lam}")
    if delta == 0 or wmax == 0:
        return 1.0
    p = lam * _log_n(n_upper, log_base) * (1.0 / delta + weight / wmax)
    return min(p, 1.0)


@dataclass(frozen=True)
class ProfileEntry:
    delta: int   # max degree over the inclusive neighborhood
    wdeg: int    # weighted degree w(N(v))
    wmax: int    # max weighted degree over the inclusive neighborhood
    p: float


@dataclass(frozen=True)
class ProfileProgram:
    """Round 1: exchange (degree, weight). Round 2: exchange weighted degree."""

    lam: float
    log_base: str = "two"

    def init(self, ctx: NodeContext, rng) -> StepResult:
        deg = len(ctx.neighbors)
        return StepResult(state=None,
                          outbox=Broadcast(Message(TAG_DEGW, (deg, ctx.weight))))

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        if state is None:
            delta = len(ctx.neighbors)
            wdeg = 0
            for msg in inbox.values():
                d, w = msg.values
                if d > delta:
                    delta = d
                wdeg += w
            return StepResult(state=(delta, wdeg),
                              outbox=Broadcast(Message(TAG_WDEG, (wdeg,))))
        delta, wdeg = state
        wmax = wdeg
        for msg in inbox.values():
            if msg.values[0] > wmax:
                wmax = msg.values[0]
        p = sampling_probability(ctx.weight, delta, wmax, self.lam,
                                 ctx.n_upper, self.log_base)
        return StepResult(halt=True, output=ProfileEntry(delta, wdeg, wmax, p))


def compute_sampling_profile(g: WeightedGraph, lam: float, log_base: str = "two",
                             n_upper: int | None = None) -> dict[int, ProfileEntry]:
    """Sequential recomputation of the profile from the full graph."""
    if n_upper is None:
        n_upper = g.n
    wdeg = {v: sum(g.weights[u] for u in g.adj[v]) for v in g.nodes}
    entries = {}
    for v in g.nodes:
        closed = (v, *g.adj[v])
        delta = max(len(g.adj[u]) for u in closed)
        wmax = max(wdeg[u] for u in closed)
        p = sampling_probability(g.weights[v], delta, wmax, lam, n_upper, log_base)
        entries[v] = ProfileEntry(delta, wdeg[v], wmax, p)
    return entries


def sample_subgraph(g: WeightedGraph, profile: dict[int, ProfileEntry],
                    seed: int) -> frozenset[int]:
    """Independent per-node Bernoulli draws from each node's private stream."""
    return frozenset(v for v in g.nodes
                     if node_uniform(seed, v, SAMPLE_SALT) < profile[v].p)


@dataclass(frozen=True)
class SparseResult:
    iset: IndependentSet
    stats: RoundStats
    sampled: frozenset[int]
    delta_h: int
    weight_h: int
    mis_valid: bool
    mis_violation: str | None = None


def sparse_approx(g: WeightedGraph, lam: float = DEFAULT_LAMBDA, seed: int = 0,
                  mode: str = "congest", n_upper: int | None = None,
                  log_base: str = "two") -> SparseResult:
    """Sample the sparse subgraph, then run the good-node MIS algorithm on it.

    The result is independent in ``g`` (the sample is induced). Diagnostics
    expose the sampled maximum degree and total weight for the statistical
    acceptance checks.
    """
    if n_upper is None:
        n_upper = g.n
    prof_out, st1 = run(g, ProfileProgram(lam, log_base), mode=mode,
                        seed=derive_seed(seed, 0x5A8F), n_upper=n_upper)
    sampled = sample_subgraph(g, prof_out, derive_seed(seed, SAMPLE_SALT))
    h = g.induced(sampled)
    heavy = heavy_mis_approx(h, seed=derive_seed(seed, 0x4EA4), mode=mode,
                             n_upper=n_upper)
    return SparseResult(iset=IndependentSet.of(g, heavy.iset.members),
                        stats=st1.merge(heavy.stats),
                        sampled=sampled,
                        delta_h=h.max_degree,
                        weight_h=h.total_weight(),
                        mis_valid=heavy.mis_valid,
                        mis_violation=heavy.mis_violation)
