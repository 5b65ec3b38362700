"""Relatively-heavy-node algorithm: MIS on the good-node subgraph.

A node is *good* when its weight is at least a 1/(2(delta+1)) fraction of
its inclusive neighborhood's total weight, where delta is the maximum degree
in the inclusive neighborhood. Running any MIS black box on the subgraph
induced by good nodes yields an independent set I with

    4 * (max_degree + 1) * w(I) >= w(V)

exactly, in integers, whenever the MIS is valid. Two CONGEST rounds suffice
to compute the predicate: one to exchange (degree, weight), one to announce
the good bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Net, NodeContext, RoundStats, StepResult, run, run_on_subgraph
from .graphs import IndependentSet, WeightedGraph
from .mis import LubyProgram, verify_mis
from .rng import derive_seed
from .wire import Message

TAG_STATS = 3
TAG_GOOD = 4


@dataclass(frozen=True)
class LocalStats:
    """Per-node output of the two-round statistics program."""

    deg: int
    delta: int          # max degree over the inclusive neighborhood
    s: int              # total weight of the inclusive neighborhood
    good: bool
    good_neighbors: tuple[int, ...]


def is_good(weight: int, delta: int, s: int) -> bool:
    """Good-node predicate 2*(delta+1)*w >= s, zero-weight nodes excluded.

    Cross-multiplied so the comparison is exact in integers. Zero-weight
    nodes can satisfy the inequality vacuously (s = 0) but never help the
    bound, and downstream callers assume positive weights.
    """
    return weight > 0 and 2 * (delta + 1) * weight >= s


@dataclass(frozen=True)
class LocalStatsProgram:
    """Round 1: exchange (degree, weight). Round 2: announce the good bit."""

    def init(self, ctx: NodeContext, rng) -> StepResult:
        deg = len(ctx.neighbors)
        return StepResult(state=None,
                          outbox=Message(TAG_STATS, (deg, ctx.weight)))

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        if state is None:
            deg = len(ctx.neighbors)
            delta = deg
            s = ctx.weight
            for msg in inbox.values():
                d, w = msg.values
                if d > delta:
                    delta = d
                s += w
            good = is_good(ctx.weight, delta, s)
            partial = (deg, delta, s, good)
            return StepResult(state=partial,
                              outbox=Message(TAG_GOOD, (int(good),)))
        deg, delta, s, good = state
        good_nbrs = tuple(sorted(u for u, msg in inbox.items() if msg.values[0]))
        return StepResult(halt=True,
                          output=LocalStats(deg, delta, s, good, good_nbrs))

    def kernel(self, net: Net) -> dict[int, LocalStats]:
        every = np.ones(len(net.ids), dtype=bool)
        deg, w = net.deg, net.weights
        net.send(every, every, TAG_STATS, deg, w)
        delta = net.fold(np.maximum, deg, deg)
        s = net.fold(np.add, w, w)
        good = [is_good(*wds) for wds in zip(w.tolist(), delta.tolist(), s.tolist())]
        good_bits = np.array(good, dtype=np.int64)
        net.send(every, every, TAG_GOOD, good_bits)
        return {v: LocalStats(*row) for v, row in zip(
            net.ids, zip(deg.tolist(), delta.tolist(), s.tolist(), good,
                         net.senders_among(good_bits > 0)))}


@dataclass(frozen=True)
class HeavyResult:
    iset: IndependentSet
    stats: RoundStats
    good: frozenset[int]
    mis_valid: bool
    mis_violation: str | None = None


def heavy_mis_approx(g: WeightedGraph, seed: int = 0, mode: str = "congest",
                     n_upper: int | None = None) -> HeavyResult:
    """Run the MIS black box on the good subgraph.

    The returned set is independent in ``g``; ``mis_valid`` flags whether the
    black box really produced a maximal independent set of the good subgraph
    (checked, never assumed), which is the hypothesis of the weight bound.
    """
    stats_out, st1 = run(g, LocalStatsProgram(), mode=mode,
                         seed=derive_seed(seed, 0x10CA1), n_upper=n_upper)
    good = frozenset(v for v, st in stats_out.items() if st.good)
    mis_out, st2 = run_on_subgraph(g, good, LubyProgram(), mode=mode,
                                   seed=derive_seed(seed, 0x1B15), n_upper=n_upper)
    members = frozenset(v for v, is_in in mis_out.items() if is_in)
    ok, violation = verify_mis(g, good, members)
    return HeavyResult(iset=IndependentSet.of(g, members),
                       stats=st1.merge(st2),
                       good=good, mis_valid=ok, mis_violation=violation)
