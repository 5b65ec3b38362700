"""Uniform entry points for every algorithm the harness can run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .arb import arb_approx
from .boost import BoostResult, Inner, PhaseFrame, boost
from .engine import RoundStats, run
from .graphs import IndependentSet, WeightedGraph, degeneracy
from .heavy import heavy_mis_approx
from .mis import LubyProgram
from .ranking import boppana_once
from .sparsify import DEFAULT_LAMBDA, sparse_approx

ALGORITHMS = ("heavy", "sparse", "boost-heavy", "boost-sparse", "arb",
              "boppana", "fastld", "luby")

DEFAULT_C_BOOST = 8.0
DEFAULT_C_RANK = 2


@dataclass(frozen=True)
class RunOutcome:
    iset: IndependentSet
    stats: RoundStats
    diagnostics: dict[str, Any] = field(default_factory=dict)
    stack: tuple[PhaseFrame, ...] | None = None


class UsageError(ValueError):
    pass


def _need(params: Mapping[str, Any], key: str, alg: str) -> Any:
    value = params.get(key)
    if value is None:
        raise UsageError(f"algorithm {alg!r} requires parameter {key!r}")
    return value


def _get(params: Mapping[str, Any], key: str, default: Any) -> Any:
    """``params[key]`` unless absent or None; a given 0 is kept and checked."""
    value = params.get(key)
    return default if value is None else value


def resolved_params(alg: str, params: Mapping[str, Any],
                    g: WeightedGraph) -> dict[str, Any]:
    """The parameters a record stores: everything the run actually used."""
    p: dict[str, Any] = {}
    if alg in ("boost-heavy", "boost-sparse", "arb", "fastld"):
        p["eps"] = float(_need(params, "eps", alg))
    if alg in ("boost-heavy", "boost-sparse"):
        p["c"] = float(_get(params, "c", DEFAULT_C_BOOST))
    if alg in ("sparse", "boost-sparse"):
        p["lam"] = float(_get(params, "lam", DEFAULT_LAMBDA))
        p["log_base"] = _get(params, "log_base", "two")
    if alg == "arb":
        alpha = params.get("alpha")
        p["alpha"] = int(alpha) if alpha is not None else max(1, degeneracy(g))
    if alg in ("boppana", "fastld"):
        p["c"] = int(_get(params, "c", DEFAULT_C_RANK))
    return p


def run_algorithm(g: WeightedGraph, alg: str, params: Mapping[str, Any],
                  seed: int, mode: str = "congest",
                  n_upper: int | None = None) -> RunOutcome:
    """Run one algorithm; ``n_upper`` is the network-size bound nodes see
    (default g.n), passed down when the run is a local-ratio inner step."""
    if alg not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
    p = resolved_params(alg, params, g)

    if alg == "heavy":
        r = heavy_mis_approx(g, seed=seed, mode=mode, n_upper=n_upper)
        return RunOutcome(r.iset, r.stats,
                          {"good_nodes": len(r.good), "mis_valid": r.mis_valid})
    if alg == "sparse":
        r = sparse_approx(g, lam=p["lam"], seed=seed, mode=mode,
                          n_upper=n_upper, log_base=p["log_base"])
        return RunOutcome(r.iset, r.stats,
                          {"sampled": len(r.sampled), "delta_h": r.delta_h,
                           "weight_h": r.weight_h, "mis_valid": r.mis_valid})
    if alg in ("boost-heavy", "boost-sparse"):
        inner = as_inner(alg.removeprefix("boost-"), p, mode)
        r = boost(g, inner, eps=p["eps"], c=p["c"], seed=seed, mode=mode,
                  n_upper=n_upper)
        return _boost_outcome(r)
    if alg == "arb":
        r = arb_approx(g, alpha=p["alpha"], eps=p["eps"], seed=seed, mode=mode,
                       n_upper=n_upper)
        return RunOutcome(r.iset, r.stats,
                          {"phases": r.phases, "alpha": p["alpha"],
                           "sizes": list(r.sizes)},
                          stack=r.stack)
    if alg == "boppana":
        iset, _, stats = boppana_once(g, c=p["c"], seed=seed, mode=mode,
                                      n_upper=n_upper)
        return RunOutcome(iset, stats, {})
    if alg == "fastld":
        # one ranking round on unit weights keeps a 1/(8*Delta) fraction, so
        # boosting uses c = 8; p["c"] is the rank-range constant
        r = boost(g, as_inner("boppana", p, mode), eps=p["eps"], c=8.0,
                  seed=seed, mode=mode, n_upper=n_upper)
        return _boost_outcome(r)
    # luby
    out, stats = run(g, LubyProgram(), mode=mode, seed=seed, n_upper=n_upper)
    members = frozenset(v for v, is_in in out.items() if is_in)
    return RunOutcome(IndependentSet.of(g, members), stats, {})


def as_inner(alg: str, params: Mapping[str, Any], mode: str = "congest") -> Inner:
    """``alg`` as a local-ratio inner algorithm (see ``boost.local_ratio``)."""
    return lambda g_sub, seed, n_upper: run_algorithm(g_sub, alg, params, seed,
                                                      mode, n_upper)


def _boost_outcome(r: BoostResult) -> RunOutcome:
    return RunOutcome(r.iset, r.stats,
                      {"phases": r.phases,
                       "inner_rounds_max": r.inner_rounds_max},
                      stack=r.stack)
