import math
import random

import pytest

from mwisim.engine import run
from mwisim.graphs import INT64_MAX, GraphError, WeightedGraph, generate
from mwisim.rng import derive_seed, node_uniform
from mwisim.sparsify import (SAMPLE_SALT, ProfileEntry, ProfileProgram,
                             compute_sampling_profile, sample_subgraph,
                             sampling_probability, sparse_approx)


def test_probability_examples():
    # min{2 * log2(16) * (1/10 + 5/50), 1} = min{1.6, 1} = 1
    assert sampling_probability(5, 10, 50, lam=2, n_upper=16) == 1.0
    # 1 * log2(100) * (0.01 + 0.01) ~ 0.1329
    p = sampling_probability(1, 100, 100, lam=1, n_upper=100)
    assert abs(p - 0.13288) < 1e-4
    assert sampling_probability(5, 0, 0, lam=4, n_upper=100) == 1.0  # isolated
    assert sampling_probability(0, 3, 0, lam=4, n_upper=100) == 1.0  # weightless 2-ball


def test_probability_natural_log():
    p2 = sampling_probability(1, 100, 100, lam=1, n_upper=100, log_base="two")
    pe = sampling_probability(1, 100, 100, lam=1, n_upper=100, log_base="natural")
    assert pe == pytest.approx(p2 * math.log(2), rel=1e-12)


def test_profile_program_matches_sequential():
    for seed in range(12):
        rng = random.Random(seed)
        g = generate("gnp", {"n": rng.randint(3, 60), "p": rng.uniform(0.05, 0.5)},
                     ("unit", "uniform_range", "heavy_tail")[seed % 3],
                     derive_seed(0x0F, seed))
        # the per-node interpreter against the array form
        out, stats = run(g, ProfileProgram(4.0), seed=seed, node_order=list)
        assert stats.rounds == 2
        assert out == compute_sampling_profile(g, 4.0)


def _reference_profile(g, lam, log_base="two", n_upper=None):
    """The profile by its definition, one neighborhood at a time."""
    n_upper = g.n if n_upper is None else n_upper
    wdeg = {v: sum(g.weights[u] for u in g.adj[v]) for v in g.nodes}
    out = {}
    for v in g.nodes:
        closed = (v, *g.adj[v])
        delta = max(len(g.adj[u]) for u in closed)
        wmax = max(wdeg[u] for u in closed)
        p = sampling_probability(g.weights[v], delta, wmax, lam, n_upper, log_base)
        out[v] = ProfileEntry(delta, wdeg[v], wmax, p)
    return out


def _profile_corpus():
    for seed in range(30):
        rng = random.Random(seed)
        yield generate("gnp", {"n": rng.randint(1, 90), "p": rng.uniform(0, 0.4)},
                       ("unit", "uniform_range", "heavy_tail")[seed % 3], seed)
    # isolated nodes and non-contiguous ids
    yield WeightedGraph([2, 5, 9, 40, 41], [(2, 40), (40, 41)],
                        {2: 3, 5: 7, 9: 0, 40: 1, 41: 6})
    yield WeightedGraph(range(4), [], {v: v + 1 for v in range(4)})
    # weighted degrees beyond int64
    yield WeightedGraph(range(5), [(0, 1), (0, 2), (0, 3), (3, 4)],
                        {0: INT64_MAX, 1: INT64_MAX, 2: INT64_MAX - 1, 3: 1, 4: 0})


def test_profile_equals_reference():
    for g in _profile_corpus():
        assert compute_sampling_profile(g, 4.0) == _reference_profile(g, 4.0)
        assert (compute_sampling_profile(g, 0.3, "natural", 1000)
                == _reference_profile(g, 0.3, "natural", 1000))


def test_clamp_and_range():
    for seed in range(10):
        g = generate("gnp", {"n": 80, "p": 0.2}, "heavy_tail", seed)
        prof = compute_sampling_profile(g, 4.0)
        for v in g.nodes:
            e = prof[v]
            assert 0.0 <= e.p <= 1.0
            raw = 4.0 * math.log2(g.n) * (1 / e.delta + g.weights[v] / e.wmax)
            assert e.p == min(raw, 1.0)


def test_sampling_degenerate_probabilities():
    g = generate("path", {"n": 6}, "unit", 0)
    all_one = {v: ProfileEntry(1, 1, 1, 1.0) for v in g.nodes}
    all_zero = {v: ProfileEntry(1, 1, 1, 0.0) for v in g.nodes}
    assert sample_subgraph(g, all_one, seed=5) == frozenset(g.nodes)
    assert sample_subgraph(g, all_zero, seed=5) == frozenset()


def test_sampling_deterministic():
    # dense enough that probabilities stay below the clamp
    g = generate("gnp", {"n": 300, "p": 0.15}, "heavy_tail", 3)
    prof = compute_sampling_profile(g, 4.0)
    assert any(prof[v].p < 1.0 for v in g.nodes)
    assert sample_subgraph(g, prof, 9) == sample_subgraph(g, prof, 9)
    draws = {sample_subgraph(g, prof, s) for s in range(5)}
    assert len(draws) > 1  # different seeds differ somewhere


def test_sample_is_the_per_node_uniform_draw():
    g = generate("gnp", {"n": 300, "p": 0.15}, "heavy_tail", 3)
    g = WeightedGraph([7 * v + 2**40 for v in g.nodes],
                      [(7 * u + 2**40, 7 * v + 2**40) for u, v in g.edges()],
                      {7 * v + 2**40: w for v, w in g.weights.items()})
    prof = compute_sampling_profile(g, 4.0)
    for seed in (0, 9, 2**63 + 1):
        want = frozenset(v for v in g.nodes
                         if node_uniform(seed, v, SAMPLE_SALT) < prof[v].p)
        assert sample_subgraph(g, prof, seed) == want
        assert 0 < len(want) < g.n


def test_isolated_nodes_always_sampled():
    g = WeightedGraph(range(4), [], {v: 1 for v in range(4)})
    prof = compute_sampling_profile(g, 4.0)
    assert all(prof[v].p == 1.0 for v in g.nodes)
    assert sample_subgraph(g, prof, 0) == frozenset(g.nodes)


def _sample(g, seed, lam=4.0):
    """The nodes ``sparse_approx(g, lam, seed)`` samples."""
    return sample_subgraph(g, compute_sampling_profile(g, lam),
                           derive_seed(seed, SAMPLE_SALT))


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0])
def test_sparse_refuses_a_lambda_that_is_not_finite_and_positive(lam):
    # a direct library call, which no parameter resolution guards
    g = generate("gnp", {"n": 30, "p": 0.2}, "unit", 1)
    with pytest.raises(GraphError, match="algorithm 'sparse': lam must be"):
        sparse_approx(g, lam=lam)


def test_sparse_edgeless():
    g = WeightedGraph(range(5), [], {v: 2 for v in range(5)})
    r = sparse_approx(g, seed=1)
    assert _sample(g, 1) == frozenset(g.nodes)
    assert r.iset.members == frozenset(g.nodes)
    assert r.iset.weight == 10
    assert r.diagnostics == {"sampled": 5, "delta_h": 0, "weight_h": 10,
                             "mis_valid": True}


def test_sparse_unit_clique():
    g = generate("clique", {"n": 50}, "unit", 0)
    r = sparse_approx(g, lam=4.0, seed=7)
    assert len(r.iset.members) == 1  # any single clique node is the MIS
    assert r.diagnostics["mis_valid"]


def test_sparse_result_independent_in_g():
    for seed in range(10):
        g = generate("gnp", {"n": 120, "p": 0.1}, "heavy_tail", seed)
        s = derive_seed(0xF00, seed)
        r = sparse_approx(g, seed=s)
        assert g.is_independent(r.iset.members)
        # subgraph soundness: diagnostics describe the induced sample
        sampled = _sample(g, s)
        h = g.induced(sampled)
        assert r.iset.members <= sampled
        assert r.diagnostics == {"sampled": len(sampled),
                                 "delta_h": h.max_degree,
                                 "weight_h": h.total_weight(),
                                 "mis_valid": True}


def test_sparse_statistical_200():
    # mean over 20 seeds clears w(V) / (8 Delta) comfortably
    weights = []
    bounds = []
    for seed in range(20):
        g = generate("gnp", {"n": 200, "p": 0.3}, "heavy_tail",
                     derive_seed(0x5AA, seed))
        r = sparse_approx(g, lam=4.0, seed=seed)
        assert r.diagnostics["mis_valid"]
        weights.append(r.iset.weight)
        bounds.append(g.total_weight() / (8 * g.max_degree))
    assert sum(weights) / len(weights) >= sum(bounds) / len(bounds)


def test_sparse_rounds_breakdown():
    g = generate("gnp", {"n": 90, "p": 0.15}, "uniform_range", 2)
    r = sparse_approx(g, seed=4)
    # 2 profile rounds + 2 stats rounds + MIS rounds
    assert r.stats.rounds >= 4
    assert r.stats.per_round_messages[0] == 2 * g.m
