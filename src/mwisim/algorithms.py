"""Uniform entry points for every algorithm the harness can run."""

from __future__ import annotations

from typing import Any, Mapping

from .arb import arb_approx
from .boost import BoostResult, Inner, boost
from .engine import RunOutcome, run
from .graphs import (GraphError, IndependentSet, WeightedGraph, check_real,
                     degeneracy)
from .heavy import heavy_mis_approx
from .mis import LubyProgram
from .ranking import boppana_once
from .sparsify import DEFAULT_LAMBDA, sparse_approx

ALGORITHMS = ("heavy", "sparse", "boost-heavy", "boost-sparse", "arb",
              "boppana", "fastld", "luby")

DEFAULT_C_BOOST = 8.0
DEFAULT_C_RANK = 2


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


def _integral(value: Any, key: str, alg: str) -> int:
    """``int(value)``, refusing a float it would truncate (or nan, inf)."""
    if isinstance(value, float) and not value.is_integer():
        raise GraphError(f"algorithm {alg!r}: {key} must be an integer, "
                         f"got {value}")
    return int(value)


def resolved_params(alg: str, params: Mapping[str, Any],
                    g: WeightedGraph) -> dict[str, Any]:
    """The parameters a record stores: everything the run actually used.

    Raises ``GraphError`` for an eps, lam or c that is not finite or out of
    range (eps > 0, lam > 0, boosting's c >= 1), or a ranking c or an alpha
    that is not an integer; ``arb_approx`` checks that alpha >= 1.
    """
    p: dict[str, Any] = {}
    if alg in ("boost-heavy", "boost-sparse", "arb", "fastld"):
        p["eps"] = check_real(_need(params, "eps", alg), "eps", alg, above=0)
    if alg in ("boost-heavy", "boost-sparse"):
        p["c"] = check_real(_get(params, "c", DEFAULT_C_BOOST), "c", alg, at_least=1)
    if alg in ("sparse", "boost-sparse"):
        p["lam"] = check_real(_get(params, "lam", DEFAULT_LAMBDA), "lam", alg,
                              above=0)
        p["log_base"] = _get(params, "log_base", "two")
    if alg == "arb":
        alpha = params.get("alpha")
        p["alpha"] = (_integral(alpha, "alpha", alg) if alpha is not None
                      else max(1, degeneracy(g)))
    if alg in ("boppana", "fastld"):
        p["c"] = _integral(_get(params, "c", DEFAULT_C_RANK), "c", alg)
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
        return heavy_mis_approx(g, seed=seed, mode=mode, n_upper=n_upper)
    if alg == "sparse":
        return sparse_approx(g, lam=p["lam"], seed=seed, mode=mode,
                             n_upper=n_upper, log_base=p["log_base"])
    if alg in ("boost-heavy", "boost-sparse"):
        inner = as_inner(alg.removeprefix("boost-"), p, mode)
        r = boost(g, inner, eps=p["eps"], c=p["c"], seed=seed, mode=mode,
                  n_upper=n_upper)
        return _boost_outcome(r)
    if alg == "arb":
        r = arb_approx(g, alpha=p["alpha"], eps=p["eps"], seed=seed, mode=mode,
                       n_upper=n_upper)
        # the phases after the last frame left the vertex set as it was
        sizes = [*r.sizes, *r.sizes[-1:] * (r.phases + 1 - len(r.sizes))]
        return RunOutcome(r.iset, r.stats,
                          {"phases": r.phases, "alpha": p["alpha"],
                           "sizes": sizes},
                          stack=r.stack)
    if alg == "boppana":
        return boppana_once(g, c=p["c"], seed=seed, mode=mode, n_upper=n_upper)
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
