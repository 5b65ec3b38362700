"""Local-ratio stack: push phases of an inner algorithm, then greedy pop.

Each phase runs an inner algorithm on (part of) the subgraph induced by
nodes with positive residual weight, pushes the selected nodes with their
residual weights onto a stack, and reduces weights in the closed
neighborhoods of selected nodes. The pop stage walks the stack
newest-first and keeps every node without a kept neighbor.

``local_ratio`` is the one phase loop. ``boost`` runs t = ceil(c/eps)
phases of an inner algorithm whose set weighs at least a 1/(c*Delta)
fraction of the remaining positive weight; the arboricity pipeline
(``arb.arb_approx``) runs it with a degree cap on what the inner algorithm
sees. The *stack property* — the popped set's original weight dominates the
sum of all pushed residual weights — holds exactly in integer arithmetic and
drives both the (1+eps)*Delta and the 8*(1+eps)*alpha bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable

import numpy as np

from .engine import Net, NodeContext, RoundStats, RunOutcome, StepResult, run
from .graphs import (GraphError, IndependentSet, WeightedGraph, check_int64,
                     check_real)
from .mis import greedy_mis
from .rng import derive_seed
from .wire import Message

TAG_REDUCE = 5


class BoostPhaseError(GraphError):
    """The inner algorithm's answer was refused in one push phase."""

    def __init__(self, phase: int, reason: str):
        super().__init__(f"phase {phase}: {reason}")
        self.phase = phase


@dataclass(frozen=True)
class PhaseFrame:
    """One stack frame: the phase's independent set and its residual weights."""

    phase: int
    members: frozenset[int]
    pushed_weights: dict[int, int]

    def __post_init__(self):
        if set(self.pushed_weights) != set(self.members):
            raise GraphError("frame weights must cover exactly the members")
        for v, w in self.pushed_weights.items():
            if w <= 0:
                raise GraphError(f"pushed weight of node {v} is {w}, must be > 0")

    def pushed_total(self) -> int:
        return sum(self.pushed_weights.values())


# An inner algorithm receives the subgraph it may select from (its weights
# are the residuals), a seed, and the original graph's n_upper.
Inner = Callable[[WeightedGraph, int, int], RunOutcome]


def run_inner(inner: Inner, g: WeightedGraph, seed: int,
              n_upper: int) -> RunOutcome:
    """``inner(g, seed, n_upper)``, refused with ``GraphError`` unless its
    set is an independent set of ``g`` and any MIS it ran is valid."""
    res = inner(g, seed, n_upper)
    if not res.diagnostics.get("mis_valid", True):
        raise GraphError("inner MIS black box returned an invalid MIS")
    members = res.iset.members
    if not members <= set(g.nodes):
        raise GraphError("inner selected nodes outside its graph")
    if not g.is_independent(members):
        raise GraphError("inner returned a non-independent set")
    return res


@dataclass(frozen=True)
class ResidualUpdateProgram:
    """One announcement round realizing the weight reduction distributively.

    Run on the positive-residual subgraph (so ctx.weight is the residual):
    selected nodes broadcast their residual weight; nodes in ``zeroed`` (a
    superset of ``selected``) end at zero; everyone else subtracts the
    announced weights of selected neighbors.
    """

    selected: frozenset[int]
    zeroed: frozenset[int]

    def init(self, ctx: NodeContext, rng) -> StepResult:
        if ctx.node_id in self.selected:
            return StepResult(state=None,
                              outbox=Message(TAG_REDUCE, (ctx.weight,)))
        return StepResult(state=None)

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        if ctx.node_id in self.zeroed:
            return StepResult(halt=True, output=0)
        reduction = sum(msg.values[0] for msg in inbox.values()
                        if msg.tag == TAG_REDUCE)
        return StepResult(halt=True, output=ctx.weight - reduction)

    def kernel(self, net: Net) -> dict[int, int]:
        ids = net.ids
        selected = np.fromiter((v in self.selected for v in ids), dtype=bool,
                               count=len(ids))
        w = net.weights
        net.send(np.ones(len(ids), dtype=bool), selected, TAG_REDUCE, w)
        out = w - net.fold(np.add, w)
        out[np.fromiter((v in self.zeroed for v in ids), dtype=bool,
                        count=len(ids))] = 0
        return dict(zip(ids, out.tolist()))


def pop_stack(g: WeightedGraph, frames: Iterable[PhaseFrame]) -> IndependentSet:
    """Second stage: the greedy scan over the frames' members, newest first."""
    newest_first = sorted(frames, key=lambda f: f.phase, reverse=True)
    return greedy_mis(g, [v for f in newest_first for v in sorted(f.members)])


def check_stack_property(g: WeightedGraph, iset: IndependentSet,
                         frames: Iterable[PhaseFrame]) -> bool:
    """w(I) >= sum over frames of the pushed residual weights, exactly."""
    return iset.weight >= sum(f.pushed_total() for f in frames)


@dataclass(frozen=True)
class BoostResult:
    iset: IndependentSet
    stack: tuple[PhaseFrame, ...]
    stats: RoundStats
    phases: int
    inner_rounds_max: int
    # positive-residual nodes before each frame's phase, then after the last
    sizes: tuple[int, ...]


def phase_count(c: float, eps: float) -> int:
    return math.ceil(c / eps)


def local_ratio(g: WeightedGraph, inner: Inner, phases: int, salt: int,
                seed: int, mode: str, n_upper: int | None,
                degree_cap: int | None = None) -> BoostResult:
    """``phases`` push phases of ``inner``, then the greedy pop stage.

    The loop's only state is the residual graph ``g_i``: the subgraph of
    ``g`` induced by the nodes of positive residual weight, carrying those
    residuals as its weights. Without a cap the inner algorithm sees all of
    it and only the nodes it selects drop to zero; with ``degree_cap`` it
    sees only the nodes of degree at most the cap, and all of those drop to
    zero. Either way the reduction is one announcement round on ``g_i``,
    charged like any other engine run, and its positive outputs induce the
    next phase's graph. That is exact: residuals never rise, so a node that
    leaves never returns, and an induced subgraph of ``g_i`` is the induced
    subgraph of ``g`` on the same nodes. A phase whose inner algorithm would
    see no node leaves ``g_i`` as it is, so the loop ends there: the stack
    holds a frame for each phase that ran, and ``phases`` stays the budget.
    A ``GraphError`` from a phase's inner run or its check (``run_inner``)
    is re-raised as ``BoostPhaseError`` naming the phase.
    """
    if n_upper is None:
        n_upper = g.n
    g_i = g.induced(v for v in g.nodes if g.weights[v] > 0)
    frames: list[PhaseFrame] = []
    stats = RoundStats()
    inner_rounds_max = 0
    sizes = []

    for i in range(1, phases + 1):
        g_in = g_i
        if degree_cap is not None and g_i.n:
            g_in = g_i.induced(compress(g_i.nodes, g_i.degrees <= degree_cap))
        if not g_in.n:
            break
        sizes.append(g_i.n)
        try:
            res = run_inner(inner, g_in, derive_seed(seed, salt + i), n_upper)
        except GraphError as e:
            raise BoostPhaseError(i, str(e)) from e
        members = res.iset.members
        stats = stats.merge(res.stats)
        inner_rounds_max = max(inner_rounds_max, res.stats.rounds)
        frames.append(PhaseFrame(i, members, {v: g_i.weights[v] for v in members}))

        zeroed = members if degree_cap is None else frozenset(g_in.nodes)
        upd_out, upd_stats = run(g_i, ResidualUpdateProgram(members, zeroed),
                                 mode=mode, seed=derive_seed(seed, 0x0DD + i),
                                 n_upper=n_upper)
        stats = stats.merge(upd_stats)
        residual = {v: check_int64(r, f"residual of node {v}")
                    for v, r in upd_out.items()}
        g_i = g_i.induced([v for v, r in residual.items() if r > 0], residual)

    sizes.append(g_i.n)
    iset = pop_stack(g, frames)
    return BoostResult(iset=iset, stack=tuple(frames), stats=stats, phases=phases,
                       inner_rounds_max=inner_rounds_max, sizes=tuple(sizes))


def boost(g: WeightedGraph, inner: Inner, eps: float, c: float = 8.0,
          seed: int = 0, mode: str = "congest",
          n_upper: int | None = None) -> BoostResult:
    """t = ceil(c/eps) push phases of ``inner``, then the greedy pop stage.

    ``c`` must bound the inner algorithm's fraction guarantee (the good-node
    algorithm has 4*(Delta+1)/Delta <= 8). Each phase costs the inner
    algorithm's rounds plus one announcement round for the weight reduction.
    """
    eps = check_real(eps, "eps", "boost", above=0)
    c = check_real(c, "c", "boost", at_least=1)
    return local_ratio(g, inner, phase_count(c, eps), 0xB0057, seed, mode, n_upper)
