"""Maximal independent set: the distributed black box and sequential tools.

The distributed algorithm is Luby-style: every active node draws a random
value each iteration, local maxima join the MIS and announce it, and the
announced nodes' neighbors drop out. One iteration costs two engine rounds
(values, then announcements). Ties are broken by node id, so every
iteration makes progress and termination is deterministic; the O(log n)
bound is the usual high-probability one.

``greedy_mis`` and ``verify_mis`` read the CSR by node position (no
adjacency tuples); ``mis_violation`` is ``verify_mis`` on boolean masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import Net, NodeContext, StepResult
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
    """Node program whose output is membership: True (in the MIS) or False."""

    def init(self, ctx: NodeContext, rng) -> StepResult:
        if not ctx.neighbors:
            return StepResult(halt=True, output=True)
        value = rng.getrandbits(_value_bits(ctx.n_upper))
        return StepResult(state=("compete", value),
                          outbox=Message(TAG_VALUE, (value,)))

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
                              outbox=Message(TAG_IN))
        if phase == "winner":
            return StepResult(halt=True, output=True)
        # phase == "listen": drop out if a neighbor joined, else recompete
        for msg in inbox.values():
            if msg.tag == TAG_IN:
                return StepResult(halt=True, output=False)
        value = rng.getrandbits(_value_bits(ctx.n_upper))
        return StepResult(state=("compete", value),
                          outbox=Message(TAG_VALUE, (value,)))

    def kernel(self, net: Net) -> np.ndarray:
        """Two rounds per iteration over all competing nodes at once. Nodes
        compete from iteration 0 until they leave, so in iteration k every
        competitor draws its word k."""
        shift = np.uint64(64 - _value_bits(net.n_upper))
        value = np.zeros(len(net.ids), dtype=np.int64)
        key = np.zeros(len(net.ids), dtype=np.int64)
        compete = net.deg > 0
        in_mis = ~compete  # isolated nodes join in init
        pos = compete.nonzero()[0]
        k = 0
        while pos.size:
            fresh = (net.words(pos, k) >> shift).astype(np.int64)
            value[pos] = fresh
            net.send(compete, compete, TAG_VALUE, value)
            # 1 + the rank of (value, id) among the competitors orders any
            # two competitors as the lexicographic comparison does: a stable
            # sort keeps equal values in position order, which is id order
            key[pos[fresh.argsort(kind="stable")]] = np.arange(1, pos.size + 1)
            win = compete & (key > net.fold(np.maximum, key))
            net.send(compete, win, TAG_IN)
            in_mis |= win
            # a listener that heard a winner drops out, the rest recompete
            compete &= ~(win | net.heard())
            pos = compete.nonzero()[0]
            k += 1
        return in_mis


def greedy_mis(g: WeightedGraph, order: Iterable[int] | None = None) -> IndependentSet:
    """Sequential greedy MIS: scan ``order`` (default: ids ascending; ids may
    repeat) and add each node unless a neighbor is already in. An id not in
    ``g`` raises ``KeyError``."""
    indptr, nbr = g.csr()
    ptr = indptr.tolist()
    pos = (range(g.n) if order is None
           else map(dict(zip(g.nodes, range(g.n))).__getitem__, order))
    inside = np.zeros(g.n, dtype=bool)
    blocked = [False] * g.n  # chosen, or next to a chosen node
    for i in pos:
        if not blocked[i]:
            inside[i] = blocked[i] = True
            for j in nbr[ptr[i]:ptr[i + 1]].tolist():
                blocked[j] = True
    return IndependentSet.of(g, inside)


def verify_mis(g: WeightedGraph, node_subset, candidate) -> tuple[bool, str | None]:
    """Check maximal independence of ``candidate`` in the subgraph induced by
    ``node_subset``, over the CSR; an id not in ``g`` raises ``GraphError``.

    Returns (True, None), or (False, description of the first violation: a
    stray candidate, then adjacent members, then a node left uncovered).
    """
    subset = set(node_subset)
    cand = set(candidate)
    stray = cand - subset
    if stray:
        return False, f"candidate node {min(stray)} is outside the subset"
    violation = mis_violation(g, g.mask(subset), g.mask(cand))
    return violation is None, violation


def mis_violation(g: WeightedGraph, sub: np.ndarray, inside: np.ndarray) -> str | None:
    """``verify_mis`` on boolean masks by position, ``inside`` within ``sub``:
    None if ``inside`` is a maximal independent set of the subgraph ``sub``
    induces, else the first violation (adjacent members, then a node left
    uncovered). One scan of the CSR."""
    indptr, nbr = g.csr()
    own = inside.repeat(g.degrees)  # the CSR entries of members' rows
    both = (inside[nbr] & own).nonzero()[0]
    if both.size:  # the least member with a member neighbor, and its least one
        v = g.nodes[indptr.searchsorted(both[0], "right") - 1]
        return f"members {v} and {g.nodes[nbr[both[0]]]} are adjacent"
    covered = inside.copy()
    covered[nbr[own]] = True
    bare = (sub & ~covered).nonzero()[0]
    if bare.size:
        return f"node {g.nodes[bare[0]]} is neither in the set nor adjacent to it"
    return None
