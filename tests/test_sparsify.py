import math
import random

import numpy as np
import pytest

from mwisim.algorithms import resolved_params, run_algorithm
from mwisim.engine import run
from mwisim.graphs import INT64_MAX, GraphError, WeightedGraph, generate
from mwisim.rng import derive_seed, node_uniform
from mwisim.sparsify import (SAMPLE_SALT, ProfileProgram,
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


def test_a_natural_log_lambda_is_lambda_times_ln_2():
    # lam * log2 n with lam = ln 2 is ln n: the paper's natural-log scale
    p = sampling_probability(1, 100, 100, lam=math.log(2), n_upper=100)
    assert p == pytest.approx(math.log(100) * (0.01 + 0.01), rel=1e-12)
    # the option that rescaled it is gone from every library call
    g = generate("path", {"n": 4}, "unit", 0)
    for call in (lambda: sampling_probability(1, 2, 3, lam=1, n_upper=8, log_base="two"),
                 lambda: ProfileProgram(4.0, "natural"),
                 lambda: compute_sampling_profile(g, 0.3, "natural", 1000),
                 lambda: sparse_approx(g, lam=4.0, log_base="two")):
        with pytest.raises(TypeError, match="log_base|positional"):
            call()


def test_profile_program_matches_sequential():
    for seed in range(12):
        rng = random.Random(seed)
        g = generate("gnp", {"n": rng.randint(3, 60), "p": rng.uniform(0.05, 0.5)},
                     ("unit", "uniform_range", "heavy_tail")[seed % 3],
                     derive_seed(0x0F, seed))
        # the per-node interpreter against the array form
        out, stats = run(g, ProfileProgram(4.0), seed=seed, node_order=list)
        assert stats.rounds == 2
        assert out.tolist() == compute_sampling_profile(g, 4.0).tolist()


def _reference_terms(g):
    """(delta, wmax) per node by their definition, one neighborhood at a time."""
    w = dict(zip(g.nodes, g.w.tolist()))
    wdeg = {v: sum(w[u] for u in g.adj[v]) for v in g.nodes}
    out = []
    for v in g.nodes:
        closed = (v, *g.adj[v])
        out.append((max(len(g.adj[u]) for u in closed),
                    max(wdeg[u] for u in closed)))
    return out


def _reference_profile(g, lam, n_upper=None):
    """p(v) by its definition, by position in ``g.nodes``."""
    n_upper = g.n if n_upper is None else n_upper
    return [sampling_probability(wv, delta, wmax, lam, n_upper)
            for wv, (delta, wmax) in zip(g.w.tolist(), _reference_terms(g))]


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
    # wmax at 2^53 - 1, 2^53 and 2^53 + 1, where a double stops holding every
    # int: the leaves' sum is the centre's weighted degree and every node's
    # wmax. At 2^53 + 1, w / float(wmax) rounds otherwise than w / wmax for
    # four heavy leaves under lam 0.3 (p < 1 there, as delta = 60).
    for wmax in (2**53 - 1, 2**53, 2**53 + 1):
        heavy = [wmax // d + 1 for d in (9, 8, 7, 6, 5)]
        light = [(wmax - sum(heavy)) // 55 + i for i in range(54)]
        leaves = [*heavy, *light, wmax - sum(heavy) - sum(light)]
        yield WeightedGraph(range(61), [(0, i) for i in range(1, 61)],
                            {0: 5, **dict(enumerate(leaves, 1))})


def test_profile_equals_reference():
    for g in _profile_corpus():
        assert compute_sampling_profile(g, 4.0).tolist() == _reference_profile(g, 4.0)
        # a raised n_upper reaches the profile through the program only
        for node_order in (None, list):
            out, _ = run(g, ProfileProgram(0.3), n_upper=1000, node_order=node_order)
            assert out.tolist() == _reference_profile(g, 0.3, 1000)


def test_clamp_and_range():
    for seed in range(10):
        g = generate("gnp", {"n": 80, "p": 0.2}, "heavy_tail", seed)
        prof = compute_sampling_profile(g, 4.0)
        for wv, p, (delta, wmax) in zip(g.w.tolist(), prof, _reference_terms(g)):
            assert 0.0 <= p <= 1.0
            raw = 4.0 * math.log2(g.n) * (1 / delta + wv / wmax)
            assert p == min(raw, 1.0)


def test_sampling_degenerate_probabilities():
    g = generate("path", {"n": 6}, "unit", 0)
    all_one = [1.0] * g.n
    all_zero = [0.0] * g.n
    every = sample_subgraph(g, all_one, seed=5)
    assert every.dtype == np.int64 and every.tolist() == list(range(g.n))
    assert sample_subgraph(g, all_zero, seed=5).tolist() == []


def test_sampling_deterministic():
    # dense enough that probabilities stay below the clamp
    g = generate("gnp", {"n": 300, "p": 0.15}, "heavy_tail", 3)
    prof = compute_sampling_profile(g, 4.0)
    assert any(p < 1.0 for p in prof)
    assert np.array_equal(sample_subgraph(g, prof, 9), sample_subgraph(g, prof, 9))
    draws = {tuple(sample_subgraph(g, prof, s).tolist()) for s in range(5)}
    assert len(draws) > 1  # different seeds differ somewhere


def test_sample_is_the_per_node_uniform_draw():
    g = generate("gnp", {"n": 300, "p": 0.15}, "heavy_tail", 3)
    g = WeightedGraph([7 * v + 2**40 for v in g.nodes],
                      [(7 * u + 2**40, 7 * v + 2**40) for u, v in g.edges()],
                      {7 * v + 2**40: w for v, w in zip(g.nodes, g.w.tolist())})
    prof = compute_sampling_profile(g, 4.0)
    for seed in (0, 9, 2**63 + 1):
        want = [i for i, (v, p) in enumerate(zip(g.nodes, prof))
                if node_uniform(seed, v, SAMPLE_SALT) < p]
        assert sample_subgraph(g, prof, seed).tolist() == want
        assert 0 < len(want) < g.n


def test_isolated_nodes_always_sampled():
    g = WeightedGraph(range(4), [], {v: 1 for v in range(4)})
    prof = compute_sampling_profile(g, 4.0)
    assert prof.tolist() == [1.0] * g.n
    assert sample_subgraph(g, prof, 0).tolist() == list(range(g.n))


def _sample(g, seed, lam=4.0):
    """The ids of the nodes ``sparse_approx(g, lam, seed)`` samples."""
    return frozenset(g.nodes[i] for i in sample_subgraph(
        g, compute_sampling_profile(g, lam), derive_seed(seed, SAMPLE_SALT)).tolist())


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0])
def test_sparse_refuses_a_lambda_that_is_not_finite_and_positive(lam):
    # a direct library call, which no parameter resolution guards
    g = generate("gnp", {"n": 30, "p": 0.2}, "unit", 1)
    with pytest.raises(GraphError, match="algorithm 'sparse': lam must be") as exc:
        sparse_approx(g, lam=lam)
    # the profile refuses it alike, as array steps and in both program forms
    for profile in (lambda: compute_sampling_profile(g, lam),
                    lambda: run(g, ProfileProgram(lam)),
                    lambda: run(g, ProfileProgram(lam), node_order=list)):
        with pytest.raises(GraphError) as again:
            profile()
        assert str(again.value) == str(exc.value)


@pytest.mark.parametrize("alg", ["sparse", "boost-sparse"])
def test_a_log_base_other_than_two_is_refused_naming_ln_2(alg):
    g = generate("gnp", {"n": 20, "p": 0.2}, "unit", 1)
    params = {"lam": 4, "eps": 0.5}
    for base in ("natural", "ten", "e", 2):
        for call in (lambda: resolved_params(alg, {**params, "log_base": base}, g),
                     lambda: run_algorithm(g, alg, {**params, "log_base": base}, 0)):
            with pytest.raises(GraphError, match=f"algorithm '{alg}': log_base must "
                               f"be 'two', got {base!r}; .* scale lam by ln 2"):
                call()
    # a given "two" runs, and records keep writing it
    two = run_algorithm(g, alg, {**params, "log_base": "two"}, 3)
    absent = run_algorithm(g, alg, params, 3)
    assert two.iset.members == absent.iset.members and two.stats == absent.stats
    assert resolved_params(alg, params, g)["log_base"] == "two"
    assert resolved_params(alg, {**params, "log_base": "two"}, g)["log_base"] == "two"


def test_sparse_edgeless():
    g = WeightedGraph(range(5), [], {v: 2 for v in range(5)})
    r = sparse_approx(g, seed=1)
    assert _sample(g, 1) == frozenset(g.nodes)
    assert r.iset.members == frozenset(g.nodes)
    assert r.iset.weight == 10
    assert r.diagnostics == {"sampled": 5, "delta_h": 0, "weight_h": 10,
                             "mis_valid": True}


def test_full_sample_builds_no_copy_of_g(monkeypatch):
    g = generate("gnp", {"n": 40, "p": 0.2}, "uniform_range", 3)
    built = []
    build = WeightedGraph._build

    def counted(self, nodes, *args):
        built.append(len(nodes))
        return build(self, nodes, *args)

    monkeypatch.setattr(WeightedGraph, "_build", counted)
    r = sparse_approx(g, lam=1e6, seed=1)  # every p(v) clamps to 1
    assert r.diagnostics["sampled"] == g.n
    assert g.n not in built


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
        h = g.induced(g.mask(sampled))
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
