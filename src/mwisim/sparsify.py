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
from itertools import compress

import numpy as np

from .engine import Net, NodeContext, RunOutcome, StepResult, run
from .graphs import (GraphError, IndependentSet, WeightedGraph, check_real,
                     neighbor_reduce)
from .heavy import heavy_mis_approx
from .rng import derive_seed, node_uniforms
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
                          outbox=Message(TAG_DEGW, (deg, ctx.weight)))

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
                              outbox=Message(TAG_WDEG, (wdeg,)))
        delta, wdeg = state
        wmax = wdeg
        for msg in inbox.values():
            if msg.values[0] > wmax:
                wmax = msg.values[0]
        p = sampling_probability(ctx.weight, delta, wmax, self.lam,
                                 ctx.n_upper, self.log_base)
        return StepResult(halt=True, output=ProfileEntry(delta, wdeg, wmax, p))

    def kernel(self, net: Net) -> dict[int, ProfileEntry]:
        return compute_sampling_profile(net.graph, self.lam, self.log_base,
                                        net.n_upper, net)


def compute_sampling_profile(g: WeightedGraph, lam: float, log_base: str = "two",
                             n_upper: int | None = None,
                             net: Net | None = None) -> dict[int, ProfileEntry]:
    """The profile program's rounds as array steps over the whole graph.

    Every node sends in both rounds, so each fold over g is the fold over
    each inbox. With ``net`` (the program's kernel) the two rounds are sent
    and charged; without it this is the sequential profile.
    """
    if n_upper is None:
        n_upper = g.n
    w = np.fromiter(map(g.weights.__getitem__, g.nodes), dtype=np.int64, count=g.n)
    deg = g.degrees
    wdeg = neighbor_reduce(g, np.add, w)
    delta = neighbor_reduce(g, np.maximum, deg, deg)
    wmax = neighbor_reduce(g, np.maximum, wdeg, wdeg)
    if net is not None:
        every = np.ones(g.n, dtype=bool)
        net.send(every, every, TAG_DEGW, deg, w)
        net.send(every, every, TAG_WDEG, wdeg)
    return {v: ProfileEntry(d, wd, wm, sampling_probability(wv, d, wm, lam,
                                                            n_upper, log_base))
            for v, wv, d, wd, wm in zip(g.nodes, w.tolist(), delta.tolist(),
                                        wdeg.tolist(), wmax.tolist())}


def sample_subgraph(g: WeightedGraph, profile: dict[int, ProfileEntry],
                    seed: int) -> frozenset[int]:
    """Independent per-node Bernoulli draws, ``rng.node_uniform`` for every
    node at once."""
    u = node_uniforms(seed, g.nodes, SAMPLE_SALT)
    p = np.fromiter((profile[v].p for v in g.nodes), dtype=np.float64, count=g.n)
    return frozenset(compress(g.nodes, (u < p).tolist()))


def sparse_approx(g: WeightedGraph, lam: float = DEFAULT_LAMBDA, seed: int = 0,
                  mode: str = "congest", n_upper: int | None = None,
                  log_base: str = "two") -> RunOutcome:
    """Sample the sparse subgraph, then run the good-node MIS algorithm on it.

    The result is independent in ``g`` (the sample is induced). Diagnostics
    give the sample's size, maximum degree and total weight for the
    statistical acceptance checks, and the inner run's ``mis_valid``.
    """
    lam = check_real(lam, "lam", "sparse", above=0)
    if n_upper is None:
        n_upper = g.n
    prof_out, st1 = run(g, ProfileProgram(lam, log_base), mode=mode,
                        seed=derive_seed(seed, 0x5A8F), n_upper=n_upper)
    sampled = sample_subgraph(g, prof_out, derive_seed(seed, SAMPLE_SALT))
    h = g.induced(sampled)
    heavy = heavy_mis_approx(h, seed=derive_seed(seed, 0x4EA4), mode=mode,
                             n_upper=n_upper)
    return RunOutcome(IndependentSet.of(g, heavy.iset.members),
                      st1.merge(heavy.stats),
                      {"sampled": len(sampled), "delta_h": h.max_degree,
                       "weight_h": h.total_weight(),
                       "mis_valid": heavy.diagnostics["mis_valid"]})
