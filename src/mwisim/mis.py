"""Maximal independent set: the distributed black box and sequential tools.

The distributed algorithm is Luby-style: every active node draws a random
value each iteration, local maxima join the MIS and announce it, and the
announced nodes' neighbors drop out. One iteration costs two engine rounds
(values, then announcements). Ties are broken by node id, so every
iteration makes progress and termination is deterministic; the O(log n)
bound is the usual high-probability one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .engine import Broadcast, NodeContext, StepResult
from .graphs import IndependentSet, WeightedGraph
from .wire import Message

TAG_VALUE = 1
TAG_IN = 2

# Random values use min(62, 8 * ceil(log2 n_upper)) bits: wide enough that
# collisions are negligible, narrow enough to respect the CONGEST budget on
# very small graphs.
VALUE_BITS_CAP = 62
VALUE_BITS_PER_ID_BIT = 8


def _value_bits(n_upper: int) -> int:
    id_bits = max(1, math.ceil(math.log2(max(n_upper, 2))))
    return min(VALUE_BITS_CAP, VALUE_BITS_PER_ID_BIT * id_bits)


@dataclass(frozen=True)
class LubyProgram:
    """Node program producing True (in MIS) / False (out) outputs."""

    def init(self, ctx: NodeContext, rng) -> StepResult:
        if not ctx.neighbors:
            return StepResult(halt=True, output=True)
        value = rng.getrandbits(_value_bits(ctx.n_upper))
        return StepResult(state=("compete", value),
                          outbox=Broadcast(Message(TAG_VALUE, (value,))))

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        phase = state[0]
        if phase == "compete":
            value = state[1]
            mine = (value, ctx.node_id)
            for u, msg in inbox.items():
                if msg.tag == TAG_VALUE and (msg.values[0], u) > mine:
                    return StepResult(state=("listen",))
            # local maximum among still-active neighbors: join and announce
            return StepResult(state=("winner",),
                              outbox=Broadcast(Message(TAG_IN)))
        if phase == "winner":
            return StepResult(halt=True, output=True)
        # phase == "listen": drop out if a neighbor joined, else recompete
        for msg in inbox.values():
            if msg.tag == TAG_IN:
                return StepResult(halt=True, output=False)
        value = rng.getrandbits(_value_bits(ctx.n_upper))
        return StepResult(state=("compete", value),
                          outbox=Broadcast(Message(TAG_VALUE, (value,))))


def greedy_mis(g: WeightedGraph, order: Iterable[int] | None = None) -> IndependentSet:
    """Sequential greedy MIS: scan ``order`` (default: ids ascending) and add
    each node unless a neighbor is already in."""
    chosen: set[int] = set()
    for v in g.nodes if order is None else order:
        if not any(u in chosen for u in g.adj[v]):
            chosen.add(v)
    return IndependentSet.of(g, chosen)


def verify_mis(g: WeightedGraph, node_subset, candidate) -> tuple[bool, str | None]:
    """Check maximal independence of ``candidate`` in the induced subgraph.

    Returns (True, None), or (False, description of the first violation).
    """
    subset = set(node_subset)
    cand = set(candidate)
    stray = cand - subset
    if stray:
        return False, f"candidate node {min(stray)} is outside the subset"
    for v in sorted(cand):
        for u in g.adj[v]:
            if u in cand:
                return False, f"members {min(u, v)} and {max(u, v)} are adjacent"
    for v in sorted(subset):
        if v in cand:
            continue
        if not any(u in cand for u in g.adj[v] if u in subset):
            return False, f"node {v} is neither in the set nor adjacent to it"
    return True, None
