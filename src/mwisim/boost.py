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
from typing import TYPE_CHECKING, Callable, Iterable

from .engine import Broadcast, NodeContext, RoundStats, StepResult, run
from .graphs import GraphError, IndependentSet, WeightedGraph, check_int64
from .mis import greedy_mis
from .rng import derive_seed
from .wire import Message

if TYPE_CHECKING:
    from .algorithms import RunOutcome

TAG_REDUCE = 5


class BoostPhaseError(RuntimeError):
    """The inner algorithm failed during one push phase."""

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
Inner = Callable[[WeightedGraph, int, int], "RunOutcome"]


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
                              outbox=Broadcast(Message(TAG_REDUCE, (ctx.weight,))))
        return StepResult(state=None)

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        if ctx.node_id in self.zeroed:
            return StepResult(halt=True, output=0)
        reduction = sum(msg.values[0] for msg in inbox.values()
                        if msg.tag == TAG_REDUCE)
        return StepResult(halt=True, output=ctx.weight - reduction)


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
    sizes: tuple[int, ...]  # positive-residual nodes before phase i = 1 .. phases+1


def phase_count(c: float, eps: float) -> int:
    return math.ceil(c / eps)


def local_ratio(g: WeightedGraph, inner: Inner, phases: int, salt: int,
                seed: int, mode: str, n_upper: int | None,
                degree_cap: int | None = None) -> BoostResult:
    """``phases`` push phases of ``inner``, then the greedy pop stage.

    Phase i runs on the subgraph of nodes with positive residual weight.
    Without a cap the inner algorithm sees all of it and only the nodes it
    selects drop to zero; with ``degree_cap`` it sees only the nodes of
    degree at most the cap, and all of those drop to zero. Either way the
    reduction is one announcement round, charged like any other engine run.
    A phase whose inner algorithm would see no node costs nothing.
    """
    if n_upper is None:
        n_upper = g.n
    residual: dict[int, int] = dict(g.weights)
    frames: list[PhaseFrame] = []
    stats = RoundStats()
    inner_rounds_max = 0
    sizes = []

    for i in range(1, phases + 1):
        active = [v for v in g.nodes if residual[v] > 0]
        sizes.append(len(active))
        if not active:
            frames.append(PhaseFrame(i, frozenset(), {}))
            continue
        g_i = g.induced(active, residual)
        g_in = g_i
        if degree_cap is not None:
            g_in = g_i.induced(v for v in active if len(g_i.adj[v]) <= degree_cap)
            if not g_in.n:
                frames.append(PhaseFrame(i, frozenset(), {}))
                continue
        res = inner(g_in, derive_seed(seed, salt + i), n_upper)
        if not res.diagnostics.get("mis_valid", True):
            raise BoostPhaseError(i, "inner MIS black box returned an invalid MIS")
        members = res.iset.members
        if not members <= set(g_in.nodes):
            raise BoostPhaseError(i, "inner selected nodes outside its subgraph")
        if not g_in.is_independent(members):
            raise BoostPhaseError(i, "inner returned a non-independent set")
        stats = stats.merge(res.stats)
        inner_rounds_max = max(inner_rounds_max, res.stats.rounds)
        frames.append(PhaseFrame(i, members, {v: residual[v] for v in members}))

        zeroed = members if degree_cap is None else frozenset(g_in.nodes)
        upd_out, upd_stats = run(g_i, ResidualUpdateProgram(members, zeroed),
                                 mode=mode, seed=derive_seed(seed, 0x0DD + i),
                                 n_upper=n_upper)
        stats = stats.merge(upd_stats)
        for v in active:
            residual[v] = check_int64(upd_out[v], f"residual of node {v}")

    sizes.append(sum(1 for v in g.nodes if residual[v] > 0))
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
    if eps <= 0:
        raise GraphError(f"eps must be > 0, got {eps}")
    if c < 1:
        raise GraphError(f"c must be >= 1, got {c}")
    return local_ratio(g, inner, phase_count(c, eps), 0xB0057, seed, mode, n_upper)
