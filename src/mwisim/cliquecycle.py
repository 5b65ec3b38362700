"""The MIS-on-a-cycle reduction over the cycle of cliques.

The construction (``graphs.build_clique_cycle``) replaces each of the n0
cycle nodes with an n1-clique and joins adjacent cliques by complete
bipartite graphs; every vertex ends up with degree exactly 3*n1 - 1.
Running any approximate max-weight independent set algorithm on this graph
(LOCAL model), mapping hits back to the cycle through the composite ids,
and greedily filling the gaps yields a maximal independent set of the
cycle — the executable form of the lower-bound reduction, with gap
statistics measured instead of bounded.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .boost import DEFAULT_C_BOOST, Inner, run_inner
from .engine import RunOutcome
from .graphs import GraphError, WeightedGraph, build_clique_cycle
from .mis import greedy_mis, verify_mis


def cycle_order(c: WeightedGraph) -> list[int]:
    """The nodes of a cycle graph in cyclic order, starting at the least id."""
    if c.n < 3 or (c.degrees != 2).any():
        raise GraphError("not a cycle: every node must have degree 2")
    rows = c.csr()[1].reshape(-1, 2).tolist()  # two neighbor positions each, ascending
    order = [0, rows[0][0]]
    while (nxt := sum(rows[order[-1]]) - order[-2]) != 0:  # the row's other entry
        order.append(nxt)
    if len(order) != c.n:
        raise GraphError("not a cycle: graph is disconnected")
    return list(map(c.nodes.__getitem__, order))


def max_gap(order: Sequence[int], members: Iterable[int]) -> int:
    """Longest run of consecutive cycle nodes outside ``members``."""
    member = set(members)
    hits = np.flatnonzero([v in member for v in order])
    if hits.size == 0:
        return len(order)
    # steps between cyclically consecutive hits, the last one wrapping round
    return int(np.diff(hits, append=hits[0] + len(order)).max()) - 1


def rand_mis(c: WeightedGraph, inner: Inner, n1: int, seed: int = 0) -> RunOutcome:
    """Build the clique cycle, run ``inner`` on it, map back, fill the gaps.

    ``inner`` runs on the whole clique cycle (LOCAL semantics are the
    caller's choice, e.g. ``as_inner(alg, params, "local")``); ``run_inner``
    refuses a set that is not independent there and a black-box MIS it
    reports invalid. The cliques follow ``cycle_order(c)`` and carry the
    cycle's ids as base ids, so a member ``v`` hits cycle node
    ``v >> j_bits``; adjacent cliques are completely joined, so the hits
    are independent on the cycle. The hits come first in the greedy fill,
    and the returned set is verified maximal on the cycle.

    The outcome's ``stats`` are the inner run's. Its diagnostics are the
    sorted cycle ids hit (``mapped``), the longest run of the cycle without
    a hit (``max_gap``), and the diagnostic radii ``r_large`` and
    ``r_small``, computed from the inner round count and the boosting
    constant ``DEFAULT_C_BOOST``.
    """
    order = cycle_order(c)
    cc = build_clique_cycle(len(order), n1, base_ids=order)
    res, _ = run_inner(inner, cc.graph, seed, cc.graph.n)
    mapped = sorted({v >> cc.j_bits for v in res.iset.members})

    mis = greedy_mis(c, [*mapped, *c.nodes])
    ok, violation = verify_mis(c, c.nodes, mis.members)
    if not ok:
        raise GraphError(f"final set is not a maximal independent set: {violation}")

    t = res.stats.rounds
    return RunOutcome(mis, res.stats,
                      {"mapped": mapped, "max_gap": max_gap(order, mapped),
                       "r_large": int((100 * DEFAULT_C_BOOST + 1) * t + 2),
                       "r_small": int(100 * DEFAULT_C_BOOST * t)})
