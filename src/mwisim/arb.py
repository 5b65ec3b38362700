"""Low-arboricity approximation: local ratio over low-degree subgraphs.

ceil(log2 n) + 1 push phases. Each phase runs a (1+eps)*Delta-approximation
on the subgraph induced by nodes of degree at most 4*alpha in the current
residual graph, pushes its independent set, reduces neighbors of selected
nodes, and keeps only strictly positive residuals for the next phase; the
low-degree nodes, selected or not, leave with the phase. Since at least
half the nodes of any subgraph have degree at most 4*alpha when alpha is at
least the arboricity, the vertex set halves every phase and empties within
the phase budget. The shared pop stage then yields an 8*(1+eps)*alpha
approximation. The phases are ``boost.local_ratio`` with a degree cap of
4*alpha, so each reduction is one charged engine round and the drop is a
local step. The caller supplies the (1+eps)*Delta-approximation as the
inner algorithm.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Mapping

from .boost import Inner, local_ratio
from .engine import RunOutcome
from .graphs import GraphError, WeightedGraph


def arb_reduce(w: Mapping[int, int], selected: Iterable[int],
               g: WeightedGraph) -> dict[int, int]:
    """Sequential mirror of one local-ratio reduction over all nodes of ``w``.

    Nodes in the independent set ``selected`` drop to zero; every other node
    loses the residual weight of its selected neighbors. This is the rule of
    ``boost.ResidualUpdateProgram``; the arboricity pipeline's drop of the
    low-degree nodes comes after it, in ``boost.local_ratio``. Residuals are
    exact Python ints, so one below -2^63 is returned as it is, as the
    reduction round does.
    """
    chosen = set(selected)
    if not g.is_independent(chosen):
        raise GraphError("selected set is not independent")
    out = {}
    for v, wv in w.items():
        if v in chosen:
            out[v] = 0
        else:
            reduction = sum(w[u] for u in g.adj[v] if u in chosen)
            out[v] = wv - reduction
    return out


def arb_phase_count(n: int) -> int:
    return (math.ceil(math.log2(n)) if n > 1 else 0) + 1


def arb_approx(g: WeightedGraph, alpha: int, inner: Inner, seed: int = 0,
               mode: str = "congest", n_upper: int | None = None) -> RunOutcome:
    """The full low-arboricity pipeline; ``alpha`` is caller-supplied.

    ``inner`` is the (1+eps)*Delta-approximation each phase runs (the
    harness passes boosting over the good-node algorithm). Degeneracy is a
    safe surrogate for alpha (it is never smaller), at the cost of a weaker
    constant in the approximation factor. The diagnostics are ``phases``,
    ``alpha`` and ``sizes``, one count per phase and one after the last.
    """
    if not alpha >= 1:  # NaN included
        raise GraphError(f"algorithm 'arb': alpha must be >= 1, got {alpha}")
    r = local_ratio(g, inner, arb_phase_count(g.n), 0xA5B, seed, mode,
                    n_upper, degree_cap=4 * alpha)
    phases, sizes = r.diagnostics["phases"], r.diagnostics["sizes"]
    # the phases after the last frame left the vertex set as it was
    sizes = sizes + sizes[-1:] * (phases + 1 - len(sizes))
    return replace(r, diagnostics={"phases": phases, "alpha": alpha,
                                   "sizes": sizes})
