"""Weighted sparsification: sample a low-degree subgraph that keeps weight.

Each node joins the sample with probability

    p(v) = min(lambda * log2 n * (1/delta(v) + w(v)/w_max(v)), 1)

where delta(v) is the maximum degree and w_max(v) the maximum weighted
degree over the inclusive neighborhood. The 1/delta term keeps enough nodes
for the unweighted count, the w/w_max term rescues heavy nodes: any node
carrying a constant fraction of its best nearby neighborhood weight is kept
deterministically. Two CONGEST rounds compute the profile; the Bernoulli
draws are local coin flips. The log's base only rescales lambda, so a
natural-log lambda is lambda * ln 2 here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Net, NodeContext, RunOutcome, StepResult, run
from .graphs import WeightedGraph, check_real, neighbor_reduce
from .heavy import degree_weight_message, heavy_mis_approx, read_degree_weight
from .rng import derive_seed, node_uniforms
from .wire import Message, from_limbs, to_limbs

TAG_DEGW = 7
TAG_WDEG = 8

SAMPLE_SALT = 0x5A3B1E
DEFAULT_LAMBDA = 4.0


def _scale(lam: float, n_upper: int) -> float:
    """lambda * log2 n, the factor every node's p shares; lam is checked."""
    return check_real(lam, "lam", "sparse", above=0) * math.log2(max(n_upper, 2))


def sampling_probability(weight: int, delta: int, wmax: int, lam: float,
                         n_upper: int) -> float:
    """The clamped per-node probability; degenerate denominators give 1.

    delta = 0 (isolated) or wmax = 0 (weightless 2-neighborhood) means the
    node is free to keep, so p = 1.
    """
    scale = _scale(lam, n_upper)
    if delta == 0 or wmax == 0:
        return 1.0
    return min(scale * (1.0 / delta + weight / wmax), 1.0)


@dataclass(frozen=True)
class ProfileProgram:
    """Round 1: exchange (degree, weight). Round 2: exchange weighted degree,
    as 63-bit limbs (``wire.to_limbs``), since a sum of weights can pass
    2^63 - 1.

    Each node's output is its sampling probability p(v). It never draws, so
    it is ``seedless``."""

    lam: float
    seedless = True

    def init(self, ctx: NodeContext, rng) -> StepResult:
        return StepResult(state=None, outbox=degree_weight_message(ctx, TAG_DEGW))

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        if state is None:
            delta, wdeg = read_degree_weight(ctx, inbox)
            return StepResult(state=(delta, wdeg), outbox=Message(TAG_WDEG, to_limbs(wdeg)))
        delta, wdeg = state
        wmax = wdeg
        for msg in inbox.values():
            try:  # one limb, unless the sum passed 63 bits
                (other,) = msg.values
            except ValueError:
                other = from_limbs(msg.values)
            if other > wmax:
                wmax = other
        p = sampling_probability(ctx.weight, delta, wmax, self.lam, ctx.n_upper)
        return StepResult(halt=True, output=p)

    def kernel(self, net: Net) -> np.ndarray:
        every = np.ones(len(net.ids), dtype=bool)
        net.send(every, every, TAG_DEGW, net.deg, net.graph.w)
        p, wdeg = _profile(net.graph, self.lam, net.n_upper)
        net.send_limbs(every, every, TAG_WDEG, wdeg)
        return p


def _profile(g: WeightedGraph, lam: float,
             n_upper: int) -> tuple[np.ndarray, np.ndarray]:
    """The profile program's two rounds as array steps over the whole graph:
    p(v) as float64 and the weighted degree (the second round's message),
    both by position in ``g.nodes``.

    Every node sends in both rounds, so each fold over g is the fold over
    each inbox.
    """
    scale = _scale(lam, n_upper)
    w, deg = g.w, g.degrees
    wdeg = neighbor_reduce(g, np.add, w)
    delta = neighbor_reduce(g, np.maximum, deg, deg)
    wmax = neighbor_reduce(g, np.maximum, wdeg, wdeg)
    # float64 steps round as ``sampling_probability``'s do wherever
    # wmax < 2^53: there w <= wmax and delta are exact doubles. An isolated
    # node has wmax = 0, so delta >= 1 wherever wmax > 0, and
    # p = inf * scale clamps to 1 where wmax = 0.
    wm = wmax.astype(np.float64)
    p = np.divide(w, wm, out=np.full(g.n, np.inf), where=wm > 0)
    p += 1.0 / np.maximum(delta, 1)
    p *= scale
    np.minimum(p, 1.0, out=p)
    for i in np.flatnonzero(wm >= 2.0**53):
        p[i] = sampling_probability(int(w[i]), int(delta[i]), int(wmax[i]), lam,
                                    n_upper)
    return p, wdeg


def compute_sampling_profile(g: WeightedGraph, lam: float) -> np.ndarray:
    """The sequential profile: p(v) for each node, by position in
    ``g.nodes``, as float64, computed as the program's kernel computes it
    with ``n_upper = g.n`` but with nothing sent or charged."""
    return _profile(g, lam, g.n)[0]


def sample_subgraph(g: WeightedGraph, p: np.ndarray, seed: int) -> np.ndarray:
    """Independent per-node Bernoulli draws with probabilities ``p`` (by
    position in ``g.nodes``), ``rng.node_uniform`` for every node at once:
    the sampled positions, ascending, as an int64 array."""
    u = node_uniforms(seed, g._ids, SAMPLE_SALT)
    return np.flatnonzero(u < p)


def sparse_approx(g: WeightedGraph, lam: float = DEFAULT_LAMBDA, seed: int = 0,
                  mode: str = "congest", n_upper: int | None = None) -> RunOutcome:
    """Sample the sparse subgraph, then run the good-node MIS algorithm on it.

    The result is independent in ``g`` (the sample is induced). Diagnostics
    give the sample's size, maximum degree and total weight for the
    statistical acceptance checks, and the inner run's ``mis_valid``.
    """
    lam = check_real(lam, "lam", "sparse", above=0)
    if n_upper is None:
        n_upper = g.n
    p, st1 = run(g, ProfileProgram(lam), mode=mode,
                 seed=derive_seed(seed, 0x5A8F), n_upper=n_upper)
    sampled = sample_subgraph(g, p, derive_seed(seed, SAMPLE_SALT))
    keep = np.zeros(g.n, dtype=bool)
    keep[sampled] = True
    h = g.induced(keep)
    heavy = heavy_mis_approx(h, seed=derive_seed(seed, 0x4EA4), mode=mode,
                             n_upper=n_upper)
    # h keeps g's weights, so the set and its weight are the same in g
    return RunOutcome(heavy.iset, st1.merge(heavy.stats),
                      {"sampled": len(sampled), "delta_h": h.max_degree,
                       "weight_h": h.total_weight(),
                       "mis_valid": heavy.diagnostics["mis_valid"]})
