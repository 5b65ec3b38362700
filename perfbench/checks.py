"""Exact per-op correctness checks, run outside the timed region.

Each check is an integer inequality taken from the acceptance battery
(``mwisim.verify``), applied to the algorithms and graph classes the
battery applies it to:

* every algorithm: the set is independent, its weight is the sum of its
  members' weights, and no message exceeded the CONGEST budget (C10);
* heavy: ``4*(D+1)*w(I) >= w(V)`` and a valid MIS of the good subgraph (C1);
* sparse: a valid MIS on the sample (C9's requirement on the inner run);
* boost-heavy, boost-sparse, fastld: phase count ``ceil(c/eps)`` and round
  budget ``t*(T_inner+2)`` (C4); on connected graphs, boost-heavy also
  satisfies ``(1+eps)*D*w(I) >= OPT`` when OPT is known and
  ``(1+eps)*(D+1)*w(I) >= w(V)`` (C3);
* every local-ratio run (boost-*, fastld, arb): the stack property
  ``w(I) >= sum of pushed residuals`` (C2) and the cover fact that each
  pushed node outside I has a neighbour in I (C3);
* arb: ``8*(1+eps)*alpha*w(I) >= OPT`` when OPT is known, halving vertex
  sets, emptiness, and ``ceil(log2 n)+1`` phases (C8);
* luby: maximal independence via ``mis.verify_mis``;
* with the exact oracle: ``OPT >= w(I)``.

Checks return a list of violations and never raise, so a failure is counted
rather than aborting the run.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mwisim.algorithms import DEFAULT_C_BOOST
from mwisim.boost import phase_count
from mwisim.engine import message_budget_bits
from mwisim.mis import verify_mis

STACK_ALGORITHMS = ("boost-heavy", "boost-sparse", "fastld", "arb")
BOOST_ALGORITHMS = ("boost-heavy", "boost-sparse", "fastld")


def is_connected(g) -> bool:
    if g.n == 0:
        return True
    seen = {g.nodes[0]}
    frontier = [g.nodes[0]]
    while frontier:
        for u in g.adj[frontier.pop()]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.n


def check_outcome(g, alg: str, params: dict, outcome, connected: bool,
                  opt: int | None = None) -> list[str]:
    """Violated inequalities of one ``RunOutcome``; ``params`` are resolved."""
    bad = []
    members = outcome.iset.members
    w = outcome.iset.weight
    w_v = g.total_weight()
    delta = g.max_degree
    if not g.is_independent(members):
        bad.append("set is not independent")
    if w != g.total_weight(members):
        bad.append("reported weight differs from the members' weight")
    if outcome.stats.max_message_bits > message_budget_bits(g.n):
        bad.append("message over the CONGEST budget")
    if opt is not None and opt < w:
        bad.append(f"oracle OPT {opt} below w(I) {w}")

    diag = outcome.diagnostics
    if alg == "heavy":
        if not diag.get("mis_valid"):
            bad.append("MIS on the good subgraph is invalid")
        if 4 * (delta + 1) * w < w_v:
            bad.append("4(D+1)w(I) < w(V)")
    elif alg == "sparse":
        if not diag.get("mis_valid"):
            bad.append("MIS on the sample is invalid")
    elif alg == "luby":
        ok, violation = verify_mis(g, g.nodes, members)
        if not ok:
            bad.append(f"not a maximal independent set ({violation})")

    if alg in BOOST_ALGORITHMS:
        eps = Fraction(params["eps"])
        c = params.get("c", DEFAULT_C_BOOST) if alg != "fastld" else DEFAULT_C_BOOST
        t = phase_count(c, float(eps))
        if diag.get("phases") != t:
            bad.append(f"{diag.get('phases')} phases, expected {t}")
        if outcome.stats.rounds > t * (diag.get("inner_rounds_max", 0) + 2):
            bad.append("rounds over t(T_inner+2)")
        if alg == "boost-heavy" and connected:
            if opt is not None and (1 + eps) * delta * w < opt:
                bad.append("(1+eps)D w(I) < OPT")
            if (1 + eps) * (delta + 1) * w < w_v:
                bad.append("(1+eps)(D+1) w(I) < w(V)")

    if alg in STACK_ALGORITHMS:
        stack = outcome.stack or ()
        if w < sum(f.pushed_total() for f in stack):
            bad.append("stack property w(I) >= pushed residuals fails")
        for frame in stack:
            uncovered = [v for v in frame.members if v not in members
                         and not any(u in members for u in g.adj[v])]
            if uncovered:
                bad.append(f"pushed node {uncovered[0]} has no neighbour in I")
                break

    if alg == "arb":
        eps = Fraction(params["eps"])
        alpha = params["alpha"]
        sizes = diag.get("sizes", [])
        if opt is not None and 8 * (1 + eps) * alpha * w < opt:
            bad.append("8(1+eps) alpha w(I) < OPT")
        if not sizes or sizes[-1] != 0:
            bad.append("vertex set not empty after the last phase")
        if any(2 * b > a for a, b in zip(sizes, sizes[1:])):
            bad.append("a phase did not halve the vertex set")
        expected = (math.ceil(math.log2(g.n)) if g.n > 1 else 0) + 1
        if diag.get("phases") != expected:
            bad.append(f"{diag.get('phases')} phases, expected {expected}")
    return bad


def same_run(a, b) -> bool:
    """Two outcomes of the same op agree on the set and every simulated count."""
    return a.iset == b.iset and a.stats == b.stats


def check_record(record: dict, outcome, g, alg: str,
                 connected: bool) -> list[str]:
    """A ``make_record(..., oracle=True)`` record against a rerun outcome."""
    bad = []
    res = record["result"]
    expect = {"weight": outcome.iset.weight, "size": len(outcome.iset.members),
              "rounds": outcome.stats.rounds,
              "messages": outcome.stats.messages_sent,
              "max_message_bits": outcome.stats.max_message_bits}
    if res != expect:
        bad.append(f"record result {res} differs from the rerun {expect}")
    if (record["n"], record["max_degree"]) != (g.n, g.max_degree):
        bad.append("record graph shape differs from the input")
    oracle = record.get("oracle")
    if oracle is None:
        bad.append("oracle missing from the record")
        opt = None
    else:
        opt = oracle["opt"]
    resolved = {k: v for k, v in record["algorithm"].items()
                if k not in ("name", "mode")}
    return bad + check_outcome(g, alg, resolved, outcome, connected, opt)
