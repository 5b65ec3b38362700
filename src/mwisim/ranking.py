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
from .wire import FIELD_BITS, Message, from_limbs, to_limbs

TAG_RANK = 6

_MAX_RANK_LIMBS = 64
PERM_CHECK_CAP = 9


def rank_range(n_upper: int, c: int) -> int:
    """Upper end R of the rank range {1, ..., 100 * n_upper^(c+2)}."""
    if not isinstance(c, int) or c < 1:
        raise GraphError(f"rank constant c must be an integer >= 1, got {c!r}")
    # Refuse before the power: for a huge c it would run for minutes and fill
    # memory before any CONGEST check sees a rank. 100 < 2^7 and
    # n < 2^bit_length(n), so R has at most `bits` bits. 64 limbs of 63 bits
    # (4032 bits) still lets c reach about 4000 / log2(n), far past any rank
    # a CONGEST budget carries.
    n = max(n_upper, 2)
    bits = 7 + (c + 2) * n.bit_length()
    if bits > _MAX_RANK_LIMBS * FIELD_BITS:
        raise GraphError(f"rank constant c={c} needs ranks of up to {bits} "
                         f"bits for n={n_upper}; the limit is "
                         f"{_MAX_RANK_LIMBS} limbs of {FIELD_BITS} bits")
    return 100 * n ** (c + 2)


@dataclass(frozen=True)
class BoppanaProgram:
    """Draw a rank, exchange it once, join iff strictly above all neighbors.

    Each node's output is its membership (a bool)."""

    c: int = 2

    def init(self, ctx: NodeContext, rng) -> StepResult:
        rank = rng.randint(1, rank_range(ctx.n_upper, self.c))
        return StepResult(state=rank,
                          outbox=Message(TAG_RANK, to_limbs(rank)))

    def step(self, state, ctx: NodeContext, inbox, rng) -> StepResult:
        rank = state
        for msg in inbox.values():
            try:  # one limb, unless the rank passed 63 bits
                (other,) = msg.values
            except ValueError:
                other = from_limbs(msg.values)
            if other >= rank:
                return StepResult(halt=True, output=False)
        return StepResult(halt=True, output=True)

    def kernel(self, net: Net) -> np.ndarray:
        ranks = net.randints(1, rank_range(net.n_upper, self.c))
        every = np.ones(len(ranks), dtype=bool)
        net.send_limbs(every, every, TAG_RANK, ranks)
        # ranks are >= 1, so a node without neighbors compares against 0
        return ranks > net.fold(np.maximum, ranks)


def boppana_once(g: WeightedGraph, c: int = 2, seed: int = 0,
                 mode: str = "congest", n_upper: int | None = None) -> RunOutcome:
    """One engine run of the ranking program: its set and stats."""
    joins, stats = run(g, BoppanaProgram(c), mode=mode, seed=seed, n_upper=n_upper)
    return RunOutcome(IndependentSet.of(g, joins), stats)


def _nbr_positions(g: WeightedGraph) -> list[list[int]]:
    """Each position's neighbor positions, read from the CSR."""
    ptr, nbr = (a.tolist() for a in g.csr())
    return [nbr[a:b] for a, b in zip(ptr, ptr[1:])]


def _bitsets(rows: list[list[int]]) -> list[int]:
    """Each row of positions as an int bitset (bit j set for position j)."""
    return [sum(1 << j for j in row) for row in rows]


def _seq_bits(nbr_bits: list[int], perm: Sequence[int]) -> int:
    """The sequential rule on positions: scan ``perm`` and keep a position
    unless a neighbor was scanned before it. Returns the kept bitset."""
    processed = chosen = 0
    for i in perm:
        if not nbr_bits[i] & processed:
            chosen |= 1 << i
        processed |= 1 << i
    return chosen


def _rank_bits(nbr_pos: list[list[int]], rank: Sequence[int]) -> int:
    """The strict-max rule on positions: position i joins iff ``rank[i]``
    exceeds every neighbor's rank (ties exclude both ends). Returns the
    joined bitset."""
    chosen = 0
    for i, row in enumerate(nbr_pos):
        r = rank[i]
        for j in row:
            if rank[j] >= r:
                break
        else:
            chosen |= 1 << i
    return chosen


def check_perm_equivalence(g: WeightedGraph) -> bool:
    """Exhaustively compare the sequential rule against the rank rule.

    For every permutation of the node positions, ranks decreasing along the
    draw order must select the same set as the sequential scan, and each
    distinct set the scan selects must be independent on the CSR. The
    permutation ranks never tie, so the rank rule is also run once with
    every rank equal, where ties exclude both ends and only the isolated
    positions may join. Enumeration-bounded to n <= 9.
    """
    n = g.n
    if n > PERM_CHECK_CAP:
        raise GraphError(f"exhaustive check limited to n <= {PERM_CHECK_CAP}, got {n}")
    nbr_pos = _nbr_positions(g)
    nbr_bits = _bitsets(nbr_pos)
    isolated = sum(1 << i for i, row in enumerate(nbr_pos) if not row)
    if _rank_bits(nbr_pos, [1] * n) != isolated:
        return False
    rank = [0] * n
    selected = set()
    for perm in permutations(range(n)):
        for pos, i in enumerate(perm):
            rank[i] = n - pos
        seq_bits = _seq_bits(nbr_bits, perm)
        if _rank_bits(nbr_pos, rank) != seq_bits:
            return False
        selected.add(seq_bits)
    return all(g._independent(np.array([bits >> i & 1 for i in range(n)], dtype=bool))
               for bits in selected)
