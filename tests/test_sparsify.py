import math
import random

import pytest

from mwisim.engine import run
from mwisim.graphs import WeightedGraph, generate
from mwisim.rng import derive_seed
from mwisim.sparsify import (ProfileEntry, ProfileProgram,
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
        out, stats = run(g, ProfileProgram(4.0), seed=seed)
        assert stats.rounds == 2
        assert out == compute_sampling_profile(g, 4.0)


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


def test_isolated_nodes_always_sampled():
    g = WeightedGraph(range(4), [], {v: 1 for v in range(4)})
    prof = compute_sampling_profile(g, 4.0)
    assert all(prof[v].p == 1.0 for v in g.nodes)
    assert sample_subgraph(g, prof, 0) == frozenset(g.nodes)


def test_sparse_edgeless():
    g = WeightedGraph(range(5), [], {v: 2 for v in range(5)})
    r = sparse_approx(g, seed=1)
    assert r.sampled == frozenset(g.nodes)
    assert r.iset.members == frozenset(g.nodes)
    assert r.iset.weight == 10 and r.delta_h == 0


def test_sparse_unit_clique():
    g = generate("clique", {"n": 50}, "unit", 0)
    r = sparse_approx(g, lam=4.0, seed=7)
    assert len(r.iset.members) == 1  # any single clique node is the MIS
    assert r.mis_valid


def test_sparse_result_independent_in_g():
    for seed in range(10):
        g = generate("gnp", {"n": 120, "p": 0.1}, "heavy_tail", seed)
        r = sparse_approx(g, seed=derive_seed(0xF00, seed))
        assert g.is_independent(r.iset.members)
        assert r.mis_valid
        # subgraph soundness: diagnostics describe the induced sample
        h = g.induced(r.sampled)
        assert r.delta_h == h.max_degree
        assert r.weight_h == h.total_weight()


def test_sparse_statistical_200():
    # mean over 20 seeds clears w(V) / (8 Delta) comfortably
    weights = []
    bounds = []
    for seed in range(20):
        g = generate("gnp", {"n": 200, "p": 0.3}, "heavy_tail",
                     derive_seed(0x5AA, seed))
        r = sparse_approx(g, lam=4.0, seed=seed)
        assert r.mis_valid
        weights.append(r.iset.weight)
        bounds.append(g.total_weight() / (8 * g.max_degree))
    assert sum(weights) / len(weights) >= sum(bounds) / len(bounds)


def test_sparse_rounds_breakdown():
    g = generate("gnp", {"n": 90, "p": 0.15}, "uniform_range", 2)
    r = sparse_approx(g, seed=4)
    # 2 profile rounds + 2 stats rounds + MIS rounds
    assert r.stats.rounds >= 4
    assert r.stats.per_round_messages[0] == 2 * g.m
