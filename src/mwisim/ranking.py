"""One-round ranking: random ranks, strict local maxima join the set.

Ranks are drawn uniformly from {1, ..., 100 * n_upper^(c+2)}, exchanged in a
single round, and a node joins iff its rank strictly exceeds every
neighbor's (ties exclude both endpoints). The sequential formulation draws
nodes one at a time and keeps a node iff none of its neighbors was drawn
earlier; per permutation the two rules select literally the same set, which
``check_perm_equivalence`` verifies exhaustively on small graphs.

Boosting this one-round algorithm through the local-ratio stack gives the
fast pipeline for unweighted low-degree graphs (``fastld`` in
``algorithms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .engine import Net, NodeContext, RunOutcome, StepResult, run
from .graphs import GraphError, IndependentSet, WeightedGraph
from .wire import Message

TAG_RANK = 6

_LIMB_BITS = 63
PERM_CHECK_CAP = 9


def rank_range(n_upper: int, c: int) -> int:
    """Upper end R of the rank range {1, ..., 100 * n_upper^(c+2)}."""
    if not isinstance(c, int) or c < 1:
        raise GraphError(f"rank constant c must be an integer >= 1, got {c!r}")
    return 100 * max(n_upper, 2) ** (c + 2)


def _rank_to_limbs(rank: int) -> tuple[int, ...]:
    """Split a rank into 63-bit wire limbs, least significant first."""
    limbs = []
    while True:
        limbs.append(rank & ((1 << _LIMB_BITS) - 1))
        rank >>= _LIMB_BITS
        if not rank:
            return tuple(limbs)


def _limbs_to_rank(limbs: Sequence[int]) -> int:
    rank = 0
    for limb in reversed(limbs):
        rank = (rank << _LIMB_BITS) | limb
    return rank


@dataclass(frozen=True)
class RankOutput:
    in_set: bool
    rank: int


@dataclass(frozen=True)
class BoppanaProgram:
    """Draw a rank, exchange it once, join iff strictly above all neighbors."""

    c: int = 2

    def init(self, ctx: NodeContext, rng) -> StepResult:
        rank = rng.randint(1, rank_range(ctx.n_upper, self.c))
        return StepResult(state=rank,
                          outbox=Message(TAG_RANK, _rank_to_limbs(rank)))

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        rank = state
        for msg in inbox.values():
            vals = msg.values
            other = vals[0] if len(vals) == 1 else _limbs_to_rank(vals)
            if other >= rank:
                return StepResult(halt=True, output=RankOutput(False, rank))
        return StepResult(halt=True, output=RankOutput(True, rank))

    def kernel(self, net: Net) -> dict[int, RankOutput]:
        ranks = net.randints(1, rank_range(net.n_upper, self.c))
        every = np.ones(len(ranks), dtype=bool)
        if ranks.dtype == object:  # wider than 63 bits: several limbs
            sizes = np.array([Message(TAG_RANK, _rank_to_limbs(r)).size_bits
                              for r in ranks], dtype=np.int64)
            net.send(every, every, TAG_RANK, sizes=sizes)
        else:
            net.send(every, every, TAG_RANK, ranks)
        # ranks are >= 1, so a node without neighbors compares against 0
        joins = (ranks > net.fold(np.maximum, ranks)).tolist()
        return {v: RankOutput(j, r)
                for v, j, r in zip(net.ids, joins, ranks.tolist())}


def rank_rule(g: WeightedGraph, ranks: dict[int, int]) -> frozenset[int]:
    """The strict-max membership rule applied to a full rank assignment."""
    return frozenset(v for v in g.nodes
                     if all(ranks[v] > ranks[u] for u in g.adj[v]))


def boppana_once(g: WeightedGraph, c: int = 2, seed: int = 0,
                 mode: str = "congest", n_upper: int | None = None) -> RunOutcome:
    """One engine run of the ranking program: its set and stats."""
    out, stats = run(g, BoppanaProgram(c), mode=mode, seed=seed, n_upper=n_upper)
    members = frozenset(v for v, r in out.items() if r.in_set)
    return RunOutcome(IndependentSet.of(g, members), stats)


def seq_boppana(g: WeightedGraph, permutation: Sequence[int]) -> IndependentSet:
    """Process nodes in order; keep a node iff no neighbor came earlier."""
    perm = list(permutation)
    if sorted(perm) != list(g.nodes):
        raise GraphError("not a permutation of the node set")
    processed: set[int] = set()
    chosen: set[int] = set()
    for v in perm:
        if not any(u in processed for u in g.adj[v]):
            chosen.add(v)
        processed.add(v)
    return IndependentSet.of(g, chosen)


def check_perm_equivalence(g: WeightedGraph) -> bool:
    """Exhaustively compare the sequential rule against the rank rule.

    For every permutation, ranks decreasing along the draw order must select
    the same set as the sequential scan. Enumeration-bounded to n <= 9.
    """
    n = g.n
    if n > PERM_CHECK_CAP:
        raise GraphError(f"exhaustive check limited to n <= {PERM_CHECK_CAP}, got {n}")
    for perm in permutations(g.nodes):
        seq_members = seq_boppana(g, perm).members
        ranks = {v: n - pos for pos, v in enumerate(perm)}
        if rank_rule(g, ranks) != seq_members:
            return False
    return True
