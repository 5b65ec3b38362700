"""Local-ratio stack: push phases of an inner algorithm, then greedy pop.

Each phase runs an inner algorithm on (part of) the subgraph induced by
nodes with positive residual weight, pushes the selected nodes with their
residual weights onto a stack, and reduces weights in the closed
neighborhoods of selected nodes. The stack lists its frames, each set's ids
and pushed residuals as arrays, in push order; the pop stage walks it
newest-first and keeps every node without a kept neighbor.

``local_ratio`` is the one phase loop, and it ends once the residual graph
empties, so a stack's length is the phases run. ``boost`` runs at most
t = ceil(c/eps) phases of an inner algorithm whose set weighs at least a
1/(c*Delta) fraction of the remaining positive weight; the arboricity pipeline
(``arb.arb_approx``) runs it with a degree cap: the inner algorithm sees
only the nodes of degree at most the cap, and they leave with the phase.
The *stack property* — the popped set's original weight dominates the
sum of all pushed residual weights — holds exactly in integer arithmetic and
drives both the (1+eps)*Delta and the 8*(1+eps)*alpha bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import Net, NodeContext, RoundStats, RunOutcome, StepResult, run
from .graphs import GraphError, IndependentSet, WeightedGraph, _read_only, check_real
from .mis import greedy_mis
from .rng import derive_seed
from .wire import Message

TAG_REDUCE = 5
DEFAULT_C_BOOST = 8.0


class BoostPhaseError(GraphError):
    """The inner algorithm's answer was refused in one push phase."""

    def __init__(self, phase: int, reason: str):
        super().__init__(f"phase {phase}: {reason}")
        self.phase = phase


@dataclass(frozen=True, eq=False)
class PhaseFrame:
    """Frame k of a stack (phase k + 1): the set's ids, ascending, and the
    residual each pushed, as read-only int64 arrays. Compared by identity."""

    ids: np.ndarray
    pushed: np.ndarray

    def __post_init__(self):
        for name in ("ids", "pushed"):  # int64 arrays of the frame's own
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), np.int64))[0])
        for v, w in zip(self.ids.tolist(), self.pushed.tolist()):
            if w <= 0:
                raise GraphError(f"pushed weight of node {v} is {w}, must be > 0")

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())

    def pushed_total(self) -> int:
        return sum(self.pushed.tolist())


# An inner algorithm receives the subgraph it may select from (its weights
# are the residuals), a seed, and the original graph's n_upper.
Inner = Callable[[WeightedGraph, int, int], RunOutcome]


def run_inner(inner: Inner, g: WeightedGraph, seed: int,
              n_upper: int) -> tuple[RunOutcome, np.ndarray]:
    """``inner(g, seed, n_upper)`` and the boolean mask of its set by
    position in ``g``, refused with ``GraphError`` unless the set is an
    independent set of ``g`` and any MIS it ran is valid."""
    res = inner(g, seed, n_upper)
    if not res.diagnostics.get("mis_valid", True):
        raise GraphError("inner MIS black box returned an invalid MIS")
    try:
        inside = g.mask(res.iset.members)
    except GraphError:
        raise GraphError("inner selected nodes outside its graph") from None
    if not g._independent(inside):
        raise GraphError("inner returned a non-independent set")
    return res, inside


@dataclass(frozen=True)
class ResidualUpdateProgram:
    """One announcement round realizing the weight reduction distributively.

    Run on the positive-residual subgraph (so ctx.weight is the residual):
    selected nodes broadcast their residual weight and end at zero; every
    other node subtracts the announced weights of its selected neighbors.
    Each node's output is its new residual.
    """

    selected: frozenset[int]

    def init(self, ctx: NodeContext, rng) -> StepResult:
        if ctx.node_id in self.selected:
            return StepResult(state=None,
                              outbox=Message(TAG_REDUCE, (ctx.weight,)))
        return StepResult(state=None)

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        if ctx.node_id in self.selected:
            return StepResult(halt=True, output=0)
        reduction = sum(msg.values[0] for msg in inbox.values()
                        if msg.tag == TAG_REDUCE)
        return StepResult(halt=True, output=ctx.weight - reduction)

    def kernel(self, net: Net) -> np.ndarray:
        ids, w = net.ids, net.graph.w
        selected = np.fromiter(map(self.selected.__contains__, ids), bool, len(ids))
        net.send(np.ones(len(ids), dtype=bool), selected, TAG_REDUCE, w)
        out = w - net.fold(np.add, w)
        out[selected] = 0
        return out


def pop_stack(g: WeightedGraph, frames: Sequence[PhaseFrame]) -> IndependentSet:
    """Second stage: the greedy scan over the stack's members, newest first."""
    return greedy_mis(g, [v for f in reversed(frames) for v in f.ids.tolist()])


def check_stack_property(iset: IndependentSet, frames: Iterable[PhaseFrame]) -> bool:
    """w(I) >= sum over frames of the pushed residual weights, exactly."""
    return iset.weight >= sum(f.pushed_total() for f in frames)


def phase_count(c: float, eps: float, alg: str = "boost") -> int:
    if not math.isfinite(c / eps):  # math.ceil refuses inf
        raise GraphError(f"algorithm {alg!r}: eps={eps} is too small: c/eps overflows")
    return math.ceil(c / eps)


def local_ratio(g: WeightedGraph, inner: Inner, phases: int, salt: int,
                seed: int, mode: str, n_upper: int | None,
                degree_cap: int | None = None) -> RunOutcome:
    """At most ``phases`` push phases of ``inner``, then the greedy pop stage.

    The loop's only state is the residual graph ``g_i``: the subgraph of
    ``g`` induced by the nodes of positive residual weight, carrying those
    residuals as its weights. The reduction is one announcement round on
    ``g_i`` (``ResidualUpdateProgram``), charged like any other engine run,
    and its positive outputs induce the next phase's graph. Without a cap
    the inner algorithm sees all of ``g_i``; with ``degree_cap`` it sees
    only the nodes of degree at most the cap, and those leave with the
    phase: a node knows its own degree, so the drop costs no round. That is
    exact: residuals never rise, so a node that leaves never returns, and an
    induced subgraph of ``g_i`` is the induced subgraph of ``g`` on the same
    nodes. A phase whose inner algorithm would see no node leaves ``g_i``
    as it is, so the loop ends there, at the latest when ``g_i`` empties:
    the stack holds a frame for each phase that ran, in push order, read off
    the mask ``run_inner`` checked, and ``phases`` is the budget.
    A ``GraphError`` from a phase's inner run or its check (``run_inner``)
    is re-raised as ``BoostPhaseError`` naming the phase.

    The outcome holds the popped set, the stats of every run and the stack;
    its diagnostics are ``phases`` (the budget), ``inner_rounds_max`` and
    ``sizes``: the positive-residual node count before each frame's phase,
    then after the last one (not padded to the budget).
    """
    if n_upper is None:
        n_upper = g.n
    g_i = g.induced(g.w > 0)
    frames: list[PhaseFrame] = []
    stats = RoundStats()
    inner_rounds_max = 0
    sizes = []

    for i in range(1, phases + 1):
        low = None if degree_cap is None else g_i.degrees <= degree_cap
        g_in = g_i if low is None else g_i.induced(low)
        if not g_in.n:
            break
        sizes.append(g_i.n)
        try:
            res, inside = run_inner(inner, g_in, derive_seed(seed, salt + i), n_upper)
        except GraphError as e:
            raise BoostPhaseError(i, str(e)) from e
        stats = stats.merge(res.stats)
        inner_rounds_max = max(inner_rounds_max, res.stats.rounds)
        frames.append(PhaseFrame(g_in._ids[inside], g_in.w[inside]))

        upd_out, upd_stats = run(g_i, ResidualUpdateProgram(res.iset.members),
                                 mode=mode, seed=derive_seed(seed, 0x0DD + i),
                                 n_upper=n_upper)
        stats = stats.merge(upd_stats)
        # int64, or Python ints that may pass -2^63; a kept one is at most its old weight
        keep = upd_out > 0
        if low is not None:
            keep &= ~low
        g_i = g_i.induced(keep, upd_out)

    sizes.append(g_i.n)
    return RunOutcome(pop_stack(g, frames), stats,
                      {"phases": phases, "inner_rounds_max": inner_rounds_max,
                       "sizes": sizes},
                      stack=tuple(frames))


def boost(g: WeightedGraph, inner: Inner, eps: float,
          c: float = DEFAULT_C_BOOST, seed: int = 0, mode: str = "congest",
          n_upper: int | None = None) -> RunOutcome:
    """At most t = ceil(c/eps) push phases of ``inner``, then the greedy pop stage.

    ``c`` must bound the inner algorithm's fraction guarantee (the good-node
    algorithm has 4*(Delta+1)/Delta <= 8). Each phase costs the inner
    algorithm's rounds plus one announcement round for the weight reduction.
    The diagnostics are ``phases`` and ``inner_rounds_max``.
    """
    eps = check_real(eps, "eps", "boost", above=0)
    c = check_real(c, "c", "boost", at_least=1)
    r = local_ratio(g, inner, phase_count(c, eps), 0xB0057, seed, mode, n_upper)
    d = r.diagnostics
    return replace(r, diagnostics={"phases": d["phases"],
                                   "inner_rounds_max": d["inner_rounds_max"]})
