"""Cycle-of-cliques construction and the MIS-on-a-cycle reduction.

The construction replaces each of the n0 cycle nodes with an n1-clique and
joins adjacent cliques by complete bipartite graphs; every vertex ends up
with degree exactly 3*n1 - 1. Running any approximate max-weight
independent set algorithm on this graph (LOCAL model), mapping hits back to
the cycle, and greedily filling the gaps yields a maximal independent set
of the cycle — the executable form of the lower-bound reduction, with gap
statistics measured instead of bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .boost import Inner, run_inner
from .engine import RoundStats
from .graphs import GraphError, IndependentSet, WeightedGraph
from .mis import greedy_mis, verify_mis


@dataclass(frozen=True)
class CliqueCycle:
    """The built graph plus the (clique index, member index) id scheme.

    Composite identifiers concatenate the base cycle id with the member
    number: id(v_ij) = base_id(i) << j_bits | j, with j in 1..n1.
    """

    n0: int
    n1: int
    base_ids: tuple[int, ...]
    j_bits: int
    graph: WeightedGraph

    def vertex_id(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n0 and 1 <= j <= self.n1):
            raise GraphError(f"no vertex ({i}, {j}) in a ({self.n0}, {self.n1}) build")
        return (self.base_ids[i - 1] << self.j_bits) | j

    def clique_index(self, vid: int) -> int:
        base = vid >> self.j_bits
        try:
            return self.base_ids.index(base) + 1
        except ValueError:
            raise GraphError(f"vertex {vid} not in this construction") from None

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(self.vertex_id(i, j) for j in range(1, self.n1 + 1))


def build_clique_cycle(n0: int, n1: int,
                       base_ids: Sequence[int] | None = None) -> CliqueCycle:
    """Unit-weight cycle of cliques: n0*n1 vertices, degree 3*n1 - 1.

    Edge rule: v_ij ~ v_i'j' iff i = i' (j != j'), |i - i'| = 1, or
    {i, i'} = {1, n0}.
    """
    if n0 < 3:
        raise GraphError(f"cycle of cliques needs n0 >= 3, got {n0}")
    if n1 < 1:
        raise GraphError(f"clique size must be >= 1, got {n1}")
    if base_ids is None:
        base_ids = tuple(range(n0))
    else:
        base_ids = tuple(base_ids)
        if len(base_ids) != n0 or len(set(base_ids)) != n0:
            raise GraphError("base_ids must be n0 distinct identifiers")
    j_bits = max(1, n1.bit_length())
    columns = [tuple((base << j_bits) | j for j in range(1, n1 + 1))
               for base in base_ids]
    edges = []
    for col in columns:
        edges.extend((col[a], col[b]) for a in range(n1) for b in range(a + 1, n1))
    for i in range(n0):
        nxt = (i + 1) % n0
        edges.extend((u, v) for u in columns[i] for v in columns[nxt])
    nodes = [v for col in columns for v in col]
    graph = WeightedGraph(nodes, edges, {v: 1 for v in nodes})
    return CliqueCycle(n0, n1, base_ids, j_bits, graph)


def cycle_order(c: WeightedGraph) -> list[int]:
    """The nodes of a cycle graph in cyclic order, starting at the least id."""
    if c.n < 3 or any(len(c.adj[v]) != 2 for v in c.nodes):
        raise GraphError("not a cycle: every node must have degree 2")
    start = c.nodes[0]
    order = [start, min(c.adj[start])]
    while True:
        prev, cur = order[-2], order[-1]
        a, b = c.adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        order.append(nxt)
    if len(order) != c.n:
        raise GraphError("not a cycle: graph is disconnected")
    return order


def map_back(c: WeightedGraph, order: Sequence[int], cc: CliqueCycle,
             i1: Iterable[int]) -> IndependentSet:
    """Project an independent set of the clique cycle onto the base cycle.

    Cycle node u_i joins iff the i-th clique column contains a member.
    Raises if the input set is not independent in the clique cycle.
    """
    members = set(i1)
    if not cc.graph.is_independent(members):
        raise GraphError("input set is not independent in the clique cycle")
    hit = {cc.clique_index(v) for v in members}
    return IndependentSet.of(c, {order[i - 1] for i in hit})


def max_gap(order: Sequence[int], members: Iterable[int]) -> int:
    """Longest run of consecutive cycle nodes outside ``members``."""
    flags = [v in set(members) for v in order]
    if not any(flags):
        return len(order)
    if all(flags):
        return 0
    # rotate so the run never wraps
    first = flags.index(True)
    rotated = flags[first:] + flags[:first]
    best = cur = 0
    for f in rotated:
        cur = 0 if f else cur + 1
        best = max(best, cur)
    return best


@dataclass(frozen=True)
class RandMISResult:
    mis: IndependentSet            # maximal independent set of the cycle
    mapped: IndependentSet         # hits mapped back before gap filling
    gap: int                       # longest uncovered run before filling
    inner_stats: RoundStats
    r_large: int
    r_small: int
    n0: int
    n1: int


def rand_mis(c: WeightedGraph, inner: Inner, n1: int, seed: int = 0,
             c_approx: float = 8.0) -> RandMISResult:
    """Build the clique cycle, run ``inner`` on it, map back, fill the gaps.

    ``inner`` runs on the whole clique cycle (LOCAL semantics are the
    caller's choice, e.g. ``as_inner(alg, params, "local")``); its output
    must be an independent set, and a black-box MIS it reports invalid is
    rejected. The returned set is verified maximal on the cycle. R_large and
    R_small are diagnostic radii computed from the measured round count and
    the approximation constant ``c_approx``, a finite number >= 1.
    """
    if not (math.isfinite(c_approx) and c_approx >= 1):
        raise GraphError(f"c must be a finite number >= 1, got {c_approx}")
    order = cycle_order(c)
    n0 = len(order)
    cc = build_clique_cycle(n0, n1, base_ids=order)
    res = run_inner(inner, cc.graph, seed, cc.graph.n)
    mapped = map_back(c, order, cc, res.iset.members)

    # the hits first, then the uncovered gaps greedily by id
    mis = greedy_mis(c, [*sorted(mapped.members), *c.nodes])
    ok, violation = verify_mis(c, c.nodes, mis.members)
    if not ok:
        raise GraphError(f"final set is not a maximal independent set: {violation}")

    t = res.stats.rounds
    return RandMISResult(
        mis=mis,
        mapped=mapped,
        gap=max_gap(order, mapped.members),
        inner_stats=res.stats,
        r_large=int((100 * c_approx + 1) * t + 2),
        r_small=int(100 * c_approx * t),
        n0=n0, n1=n1,
    )
