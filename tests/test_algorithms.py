import pytest

from mwisim.algorithms import (ALGORITHMS, UsageError, as_inner,
                               resolved_params, run_algorithm)
from mwisim.arb import arb_approx
from mwisim.boost import BoostPhaseError, boost
from mwisim.engine import RunOutcome
from mwisim.graphs import GraphError, WeightedGraph, generate
from test_boost import stack_arrays

PARAMS = {
    "heavy": {},
    "sparse": {},
    "boost-heavy": {"eps": 0.5},
    "boost-sparse": {"eps": 0.5},
    "arb": {"eps": 0.5},
    "boppana": {},
    "fastld": {"eps": 0.5},
    "luby": {},
}

TINY = [
    WeightedGraph([0], [], {0: 7}),
    WeightedGraph([0, 1], [(0, 1)], {0: 1, 1: 1}),
    generate("cycle", {"n": 5}, "unit", 0),
    generate("gnp", {"n": 12, "p": 0.4}, "uniform_range", 3),
    WeightedGraph([], [], {}),
    WeightedGraph([0, 1], [(0, 1)], {0: 0, 1: 0}),  # all-zero weights
]


@pytest.mark.parametrize("alg", ALGORITHMS)
@pytest.mark.parametrize("gi", range(len(TINY)))
def test_every_algorithm_handles_degenerate_graphs(alg, gi):
    g = TINY[gi]
    out = run_algorithm(g, alg, PARAMS[alg], seed=5)
    assert g.is_independent(out.iset.members)
    assert out.iset.weight == g.total_weight(out.iset.members)
    again = run_algorithm(g, alg, PARAMS[alg], seed=5)
    assert out.iset == again.iset
    assert out.stats.per_round_messages == again.stats.per_round_messages


def test_unknown_algorithm_and_missing_params():
    g = TINY[2]
    with pytest.raises(UsageError, match="unknown algorithm"):
        run_algorithm(g, "simulated-annealing", {}, seed=0)
    with pytest.raises(UsageError, match="requires parameter 'eps'"):
        run_algorithm(g, "boost-heavy", {}, seed=0)


def test_single_node_outcomes():
    g = TINY[0]
    for alg in ALGORITHMS:
        out = run_algorithm(g, alg, PARAMS[alg], seed=1)
        assert out.iset.members == frozenset({0}), alg
        assert out.iset.weight == 7


def test_local_mode_supported_everywhere():
    g = TINY[3]
    for alg in ALGORITHMS:
        out = run_algorithm(g, alg, PARAMS[alg], seed=2, mode="local")
        assert g.is_independent(out.iset.members)
        assert out.stats.budget_bits is None


@pytest.mark.parametrize("alpha,reason", [(2.7, "integer"), (float("nan"), "integer"),
                                          (0, ">= 1")])
def test_arb_alpha_is_not_truncated(alpha, reason):
    with pytest.raises(GraphError, match=f"algorithm 'arb': alpha must be.*{reason}"):
        run_algorithm(TINY[3], "arb", {"alpha": alpha, "eps": 0.5}, 0)


def test_arb_integral_float_alpha_is_stored_as_int():
    p = resolved_params("arb", {"alpha": 2.0, "eps": 0.5}, TINY[3])
    assert p["alpha"] == 2 and type(p["alpha"]) is int
    out = run_algorithm(TINY[3], "arb", {"alpha": 2.0, "eps": 0.5}, 0)
    assert out.diagnostics["alpha"] == 2


@pytest.mark.parametrize("mode", ["congest", "local"])
def test_pipelines_return_the_harness_outcome_unchanged(mode):
    g = generate("gnp", {"n": 30, "p": 0.2}, "heavy_tail", 11)
    p = {"eps": 0.5}
    direct = {
        "boost-heavy": boost(g, as_inner("heavy", p, mode), eps=0.5, seed=4,
                             mode=mode),
        "fastld": boost(g, as_inner("boppana", {"c": 2}, mode), eps=0.5, seed=4,
                        mode=mode),
        "arb": arb_approx(g, 2, as_inner("boost-heavy", p, mode), seed=4,
                          mode=mode),
    }
    keys = {"boost-heavy": {"phases", "inner_rounds_max"},
            "fastld": {"phases", "inner_rounds_max"},
            "arb": {"phases", "alpha", "sizes"}}
    for alg, r in direct.items():
        out = run_algorithm(g, alg, {**p, "alpha": 2}, seed=4, mode=mode)
        assert type(r) is type(out) is RunOutcome
        assert set(r.diagnostics) == set(out.diagnostics) == keys[alg]
        assert (r.iset, r.stats, r.diagnostics, stack_arrays(r.stack)) == (
            out.iset, out.stats, out.diagnostics, stack_arrays(out.stack))
        assert len(r.stack) >= 2 and r.phases == r.diagnostics["phases"]
    assert len(direct["arb"].diagnostics["sizes"]) == direct["arb"].phases + 1


def test_inner_refusal_is_raised_by_the_first_phase():
    g = generate("gnp", {"n": 12, "p": 0.3}, "unit", 1)
    inner = as_inner("sparse", {"lam": -1.0})  # not checked until it runs
    with pytest.raises(BoostPhaseError, match="phase 1: algorithm 'sparse'.*lam"):
        boost(g, inner, eps=0.5)
