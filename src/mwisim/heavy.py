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

from .engine import (Net, NodeContext, RunOutcome, StepResult, run,
                     run_on_subgraph)
from .graphs import IndependentSet, WeightedGraph
from .mis import LubyProgram, mis_violation
from .rng import derive_seed
from .wire import Message

TAG_STATS = 3
TAG_GOOD = 4


def is_good(weight, delta, s):
    """Good-node predicate 2*(delta+1)*w >= s, zero-weight nodes excluded.

    Written as w >= ceil(s / (2(delta+1))), the same test for an integer w,
    whose ceiling never leaves s's range: so it is exact on Python ints and
    on int64 or object arrays alike, elementwise for arrays. Zero-weight
    nodes can satisfy the inequality vacuously (s = 0) but never help the
    bound, and downstream callers assume positive weights.
    """
    return (weight > 0) & (weight >= -(-s // (2 * (delta + 1))))


def degree_weight_message(ctx: NodeContext, tag: int) -> Message:
    """Round 1 of the good-node and profile programs: (degree, weight)."""
    return Message(tag, (len(ctx.neighbors), ctx.weight))


def read_degree_weight(ctx: NodeContext, inbox) -> tuple[int, int]:
    """Round 1's inbox read: max degree over the closed neighborhood, neighbors' weight."""
    delta, total = len(ctx.neighbors), 0
    for msg in inbox.values():
        d, w = msg.values
        if d > delta:
            delta = d
        total += w
    return delta, total


@dataclass(frozen=True)
class LocalStatsProgram:
    """Round 1: exchange (degree, weight). Round 2: announce the good bit,
    which is each node's output. It never draws, so it is ``seedless``."""

    seedless = True

    def init(self, ctx: NodeContext, rng) -> StepResult:
        return StepResult(state=None, outbox=degree_weight_message(ctx, TAG_STATS))

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        if state is None:
            delta, s = read_degree_weight(ctx, inbox)
            good = is_good(ctx.weight, delta, ctx.weight + s)
            return StepResult(state=good, outbox=Message(TAG_GOOD, (int(good),)))
        return StepResult(halt=True, output=state)

    def kernel(self, net: Net) -> np.ndarray:
        every = np.ones(len(net.ids), dtype=bool)
        deg, w = net.deg, net.graph.w
        net.send(every, every, TAG_STATS, deg, w)
        good = is_good(w, net.fold(np.maximum, deg, deg), net.fold(np.add, w, w))
        net.send(every, every, TAG_GOOD, good)
        return good


def heavy_mis_approx(g: WeightedGraph, seed: int = 0, mode: str = "congest",
                     n_upper: int | None = None) -> RunOutcome:
    """Run the MIS black box on the good subgraph.

    The returned set is independent in ``g``. Diagnostics: ``good_nodes``
    counts the good subgraph, and ``mis_valid`` flags whether the black box
    really produced a maximal independent set of it (checked, never
    assumed), which is the hypothesis of the weight bound.
    """
    good, st1 = run(g, LocalStatsProgram(), mode=mode,
                    seed=derive_seed(seed, 0x10CA1), n_upper=n_upper)
    in_mis, st2 = run_on_subgraph(g, good, LubyProgram(), mode=mode,
                                  seed=derive_seed(seed, 0x1B15), n_upper=n_upper)
    inside = np.zeros(g.n, dtype=bool)
    inside[good.nonzero()[0]] = in_mis  # the good subgraph's positions, ascending
    violation = mis_violation(g, good, inside)
    if violation is None:  # its one scan found no adjacent members
        iset = IndependentSet._of_independent(g, inside)
    else:  # refused if dependent; else independent but not maximal
        iset = IndependentSet.of(g, inside)
    return RunOutcome(iset, st1.merge(st2),
                      {"good_nodes": int(np.count_nonzero(good)),
                       "mis_valid": violation is None})
