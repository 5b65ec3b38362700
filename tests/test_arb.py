import random
from fractions import Fraction

import pytest

from mwisim.algorithms import RunOutcome, as_inner, run_algorithm
from mwisim.arb import (arb_approx, arb_phase_count, arb_reduce,
                        low_degree_subgraph)
from mwisim.boost import (BoostPhaseError, ResidualUpdateProgram,
                          check_stack_property)
from mwisim.engine import RoundStats, run
from mwisim.graphs import (GraphError, IndependentSet, WeightedGraph,
                           brute_force_max_is, degeneracy, generate,
                           random_tree)
from mwisim.rng import derive_seed


def test_low_degree_examples():
    tree = random_tree(30, 3)
    low = low_degree_subgraph(tree, 1)
    assert low == frozenset(v for v in tree.nodes if len(tree.adj[v]) <= 4)

    k10 = generate("clique", {"n": 10}, "unit", 0)
    assert low_degree_subgraph(k10, 2) == frozenset()  # degrees 9 > 8

    edgeless = WeightedGraph(range(5), [], {v: 1 for v in range(5)})
    assert low_degree_subgraph(edgeless, 7) == frozenset(range(5))

    with pytest.raises(GraphError, match="alpha"):
        low_degree_subgraph(k10, 0)


def test_arb_reduce_star():
    # center weight 100 with 5 leaves of weight 1, alpha = 1
    g = WeightedGraph(range(6), [(0, i) for i in range(1, 6)],
                      {0: 100, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
    low = low_degree_subgraph(g, 1)
    assert low == frozenset(range(1, 6))  # center has degree 5 > 4
    selected = {1, 3}
    w2 = arb_reduce(g.weights, selected, low, g)
    assert w2[0] == 100 - 2            # center loses selected leaf weights
    assert all(w2[v] == 0 for v in range(1, 6))
    assert [v for v in g.nodes if w2[v] > 0] == [0]  # only the center survives


def test_arb_reduce_identity_when_nothing_low():
    g = generate("clique", {"n": 10}, "unit", 0)
    assert arb_reduce(g.weights, set(), frozenset(), g) == g.weights


def test_arb_reduce_single_node():
    g = WeightedGraph([0], [], {0: 7})
    assert arb_reduce(g.weights, {0}, low_degree_subgraph(g, 1), g) == {0: 0}


def test_arb_reduce_preconditions():
    g = generate("path", {"n": 4}, "unit", 0)
    with pytest.raises(GraphError, match="inside the zeroed set"):
        arb_reduce(g.weights, {0}, frozenset({1}), g)
    with pytest.raises(GraphError, match="not independent"):
        arb_reduce(g.weights, {0, 1}, frozenset(g.nodes), g)


def test_phase_count():
    assert arb_phase_count(1) == 1
    assert arb_phase_count(2) == 2
    assert arb_phase_count(24) == 6   # ceil(log2 24) = 5
    assert arb_phase_count(1024) == 11


def test_arb_edgeless_one_phase():
    g = WeightedGraph(range(4), [], {v: v + 1 for v in range(4)})
    r = arb_approx(g, alpha=1, eps=0.5, seed=0)
    assert r.iset.members == frozenset(range(4))
    assert r.sizes[1] == 0


def test_arb_path_example():
    g = WeightedGraph(range(3), [(0, 1), (1, 2)], {0: 3, 1: 5, 2: 3})
    opt = brute_force_max_is(g).weight  # 6
    r = arb_approx(g, alpha=1, eps=0.25, seed=2)
    assert 8 * Fraction(5, 4) * 1 * r.iset.weight >= opt
    assert r.sizes[-1] == 0
    assert check_stack_property(g, r.iset, r.stack)


@pytest.mark.parametrize("seed", range(25))
def test_arb_trees_vs_oracle(seed):
    n = random.Random(seed).randint(4, 20)
    g = random_tree(n, seed, weight_model=("uniform_range", "heavy_tail")[seed % 2])
    opt = brute_force_max_is(g).weight
    eps = Fraction(1, 2)
    r = arb_approx(g, alpha=1, eps=float(eps), seed=derive_seed(0xA4, seed))
    assert 8 * (1 + eps) * 1 * r.iset.weight >= opt
    assert r.sizes[-1] == 0
    assert r.phases == arb_phase_count(n)
    for a, b in zip(r.sizes, r.sizes[1:]):
        assert 2 * b <= a


def test_arb_halving_with_degeneracy_alpha():
    for seed in range(10):
        g = generate("gnp", {"n": 22, "p": 0.18}, "uniform_range", seed)
        alpha = max(1, degeneracy(g))
        r = arb_approx(g, alpha=alpha, eps=0.5, seed=seed)
        for a, b in zip(r.sizes, r.sizes[1:]):
            assert 2 * b <= a
        assert r.sizes[-1] == 0
        assert check_stack_property(g, r.iset, r.stack)


def test_arb_inner_failure_reports_phase():
    class Bad:
        def __call__(self, g_sub, seed, n_upper):
            everything = frozenset(g_sub.nodes)
            return RunOutcome(IndependentSet(everything, g_sub.total_weight()),
                              RoundStats())

    g = generate("cycle", {"n": 8}, "unit", 0)
    with pytest.raises(BoostPhaseError, match="phase 1"):
        arb_approx(g, alpha=2, eps=0.5, inner=Bad(), seed=0)


def test_arb_rejects_bad_parameters():
    g = generate("path", {"n": 3}, "unit", 0)
    with pytest.raises(GraphError, match="alpha"):
        arb_approx(g, alpha=0, eps=0.5)
    with pytest.raises(GraphError, match="eps"):
        arb_approx(g, alpha=1, eps=-1.0)


def test_boosted_inner_respects_subgraph_guarantee():
    # inner returns a (1+eps)Delta-approximation on the low-degree subgraph
    g = generate("gnp", {"n": 14, "p": 0.3}, "uniform_range", 6)
    res = run_algorithm(g, "boost-heavy", {"eps": 0.5}, 4, n_upper=g.n)
    assert g.is_independent(res.iset.members)
    opt = brute_force_max_is(g).weight
    assert Fraction(3, 2) * g.max_degree * res.iset.weight >= opt


# ------------------------------------------------- the reduction as a round

def _random_independent(g, rng, k):
    members = set()
    for v in sorted(g.nodes, key=lambda v: rng.random()):
        if len(members) < k and not any(u in members for u in g.adj[v]):
            members.add(v)
    return frozenset(members)


def test_update_round_matches_sequential_mirror():
    rng = random.Random(0xA8E)
    for k in range(30):
        g = generate("gnp", {"n": rng.randint(2, 30), "p": rng.uniform(0.05, 0.5)},
                     ("uniform_range", "heavy_tail")[k % 2], derive_seed(0xA8E, k))
        selected = _random_independent(g, rng, rng.randint(0, 5))
        if k % 3 == 0:
            zeroed = selected  # boosting's rule
        else:
            zeroed = selected | {v for v in g.nodes if rng.random() < 0.4}
        out, stats = run(g, ResidualUpdateProgram(selected, zeroed),
                         seed=derive_seed(0xA8F, k))
        assert out == arb_reduce(g.weights, selected, zeroed, g)
        assert stats.rounds == 1
        assert stats.messages_sent == sum(g.degree(v) for v in selected)


def test_arb_rounds_are_inner_rounds_plus_one_per_low_phase():
    for seed in range(8):
        g = generate("gnp", {"n": 40, "p": 0.15}, "heavy_tail", derive_seed(0xA8C, seed))
        alpha = max(1, degeneracy(g) // 2)  # leaves high-degree nodes for later
        inner_rounds = []
        boosted = as_inner("boost-heavy", {"eps": 0.5})

        def inner(g_sub, s, n_upper):
            out = boosted(g_sub, s, n_upper)
            inner_rounds.append(out.stats.rounds)
            return out

        r = arb_approx(g, alpha=alpha, eps=0.5, inner=inner, seed=seed)
        # replay the phases with the sequential mirror: the inner algorithm
        # and the reduction round run exactly in phases with a low-degree node
        w = g.weights
        low_phases = 0
        for frame, size in zip(r.stack, r.sizes):
            active = [v for v in g.nodes if w[v] > 0]
            assert size == len(active)
            low = low_degree_subgraph(g.induced(active, w), alpha)
            assert frame.members <= low
            low_phases += bool(low)
            w = arb_reduce(w, frame.members, low, g)
        assert r.sizes[-1] == sum(1 for v in g.nodes if w[v] > 0)
        assert low_phases == len(inner_rounds)
        assert r.stats.rounds == sum(inner_rounds) + low_phases
        assert len(r.stats.per_round_messages) == r.stats.rounds
    # no low-degree node in any phase: nothing runs and nothing is charged
    k10 = generate("clique", {"n": 10}, "unit", 0)
    r = arb_approx(k10, alpha=2, eps=0.5, seed=0)
    assert r.stats.rounds == 0 and set(r.sizes) == {10}


def test_c10_arb_charges_its_reduction_rounds():
    g = generate("gnp", {"n": 60, "p": 0.12}, "uniform_range", 99)
    out = run_algorithm(g, "arb", {"eps": 0.5}, 7)
    assert out.stats.rounds == 18
    assert out.stats.messages_sent == 1459


def test_arb_zero_weight_nodes_leave_before_phase_one():
    rng = random.Random(0xA20)
    eps = Fraction(1, 2)
    for k in range(20):
        n = rng.randint(4, 18)
        base = generate("gnp", {"n": n, "p": rng.uniform(0.1, 0.4)},
                        ("uniform_range", "heavy_tail")[k % 2], derive_seed(0xA20, k))
        weights = {v: 0 if rng.random() < 0.3 else w for v, w in base.weights.items()}
        g = base.induced(base.nodes, weights)
        alpha = max(1, degeneracy(g))
        out = run_algorithm(g, "arb", {"eps": float(eps), "alpha": alpha},
                            derive_seed(0xA21, k))
        sizes = out.diagnostics["sizes"]
        assert sizes[0] == sum(1 for w in weights.values() if w > 0)
        assert sizes[-1] == 0
        assert all(weights[v] > 0 for f in out.stack for v in f.members)
        assert 8 * (1 + eps) * alpha * out.iset.weight >= brute_force_max_is(g).weight
