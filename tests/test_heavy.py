import random

import pytest

from mwisim.engine import run
from mwisim.graphs import INT64_MAX, WeightedGraph, generate
from mwisim.heavy import LocalStatsProgram, heavy_mis_approx, is_good
from mwisim.rng import derive_seed


def star_1_10():
    return WeightedGraph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)],
                         {0: 1, 1: 10, 2: 10, 3: 10})


def stats_by_node(g):
    """The statistics kernel's (deg, delta, s) as {node: (deg, delta, s)}; LOCAL
    mode, so weights near INT64_MAX are not refused as too wide."""
    out, _ = run(g, LocalStatsProgram(), mode="local")
    return {v: (st.deg, st.delta, st.s) for v, st in out.items()}


def good_nodes(g):
    """Exactly the nodes satisfying the good predicate on the kernel's stats."""
    return frozenset(v for v, (_, d, t) in stats_by_node(g).items()
                     if is_good(g.weights[v], d, t))


def test_stats_examples():
    isolated = WeightedGraph([0], [], {0: 5})
    assert stats_by_node(isolated)[0] == (0, 0, 5)

    star = WeightedGraph(range(4), [(0, 1), (0, 2), (0, 3)], {v: 1 for v in range(4)})
    stats = stats_by_node(star)
    assert stats[0] == (3, 3, 4)   # center
    assert stats[1] == (1, 3, 2)   # leaf


def _reference_stats(g):
    out = {}
    for v in g.nodes:
        closed = (v, *g.adj[v])
        out[v] = (len(g.adj[v]),
                  max(len(g.adj[u]) for u in closed),
                  sum(g.weights[u] for u in closed))
    return out


def test_stats_equal_reference():
    corpus = [generate("gnp", {"n": n, "p": p}, wm, n)
              for n in (1, 7, 60) for p in (0.0, 0.2, 1.0)
              for wm in ("unit", "heavy_tail")]
    corpus.append(WeightedGraph([2, 5, 9, 40, 41], [(2, 40), (40, 41)],
                                {2: 3, 5: 7, 9: 0, 40: 1, 41: 6}))
    corpus.append(WeightedGraph(range(4), [(0, 1), (0, 2), (2, 3)],
                                {0: INT64_MAX, 1: INT64_MAX, 2: 1, 3: INT64_MAX}))
    for g in corpus:
        assert stats_by_node(g) == _reference_stats(g)


def test_stats_program_matches_sequential():
    for seed in range(15):
        rng = random.Random(seed)
        g = generate("gnp", {"n": rng.randint(3, 60), "p": rng.uniform(0.05, 0.5)},
                     ("unit", "uniform_range", "heavy_tail")[seed % 3],
                     derive_seed(0x5E, seed))
        # the per-node interpreter against the array form
        out, stats = run(g, LocalStatsProgram(), seed=seed, node_order=list)
        assert stats.rounds == 2
        seq = stats_by_node(g)
        good = good_nodes(g)
        for v in g.nodes:
            assert (out[v].deg, out[v].delta, out[v].s) == seq[v]
            assert out[v].good == (v in good)
            assert set(out[v].good_neighbors) == {u for u in g.adj[v] if u in good}


def test_good_examples():
    star = star_1_10()
    assert good_nodes(star) == frozenset({1, 2, 3})  # center: 2*4*1 = 8 < 31

    for n in (2, 5, 9):
        kn = generate("clique", {"n": n}, "unit", 0)
        assert good_nodes(kn) == frozenset(range(n))  # 2n >= n

    isolated = WeightedGraph([7], [], {7: 3})
    assert good_nodes(isolated) == frozenset({7})


def test_zero_weight_nodes_never_good():
    g = WeightedGraph([0, 1], [], {0: 0, 1: 0})
    assert good_nodes(g) == frozenset()
    assert not is_good(0, 0, 0)


@pytest.mark.parametrize("seed", range(30))
def test_good_nodes_carry_half_the_weight(seed):
    rng = random.Random(seed)
    g = generate("gnp", {"n": rng.randint(3, 80), "p": rng.uniform(0.05, 0.5)},
                 ("unit", "uniform_range", "heavy_tail")[seed % 3],
                 derive_seed(0x60D, seed))
    assert 2 * g.total_weight(good_nodes(g)) >= g.total_weight()


def test_heavy_star():
    star = star_1_10()
    r = heavy_mis_approx(star, seed=3)
    assert r.iset.members == frozenset({1, 2, 3})
    assert r.iset.weight == 30
    assert r.diagnostics == {"good_nodes": 3, "mis_valid": True}
    assert 4 * (star.max_degree + 1) * r.iset.weight >= star.total_weight()


def test_heavy_single_node():
    g = WeightedGraph([0], [], {0: 9})
    r = heavy_mis_approx(g, seed=0)
    assert r.iset.members == frozenset({0}) and r.iset.weight == 9


def test_heavy_c5_unit():
    g = generate("cycle", {"n": 5}, "unit", 0)
    r = heavy_mis_approx(g, seed=11)
    assert good_nodes(g) == frozenset(g.nodes)
    assert len(r.iset.members) == 2
    assert r.diagnostics == {"good_nodes": 5, "mis_valid": True}


def test_round_count_is_two_plus_mis():
    from mwisim.engine import run_on_subgraph
    from mwisim.mis import LubyProgram

    g = generate("gnp", {"n": 50, "p": 0.15}, "uniform_range", 5)
    r = heavy_mis_approx(g, seed=5)
    assert r.stats.per_round_messages[0] == 2 * g.m
    good = good_nodes(g)
    assert r.diagnostics["good_nodes"] == len(good)
    # replay the MIS leg with the same derived seed: rounds = 2 + T_mis exactly
    _, mis_stats = run_on_subgraph(g, good, LubyProgram(),
                                   seed=derive_seed(5, 0x1B15))
    assert r.stats.rounds == 2 + mis_stats.rounds


@pytest.mark.parametrize("seed", range(60))
def test_exact_guarantee_random(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 200)
    fam = rng.choice(["gnp", "cycle", "star", "path"])
    params = {"n": n, "p": rng.uniform(0.02, 0.3)} if fam == "gnp" else {"n": n}
    g = generate(fam, params, ("unit", "uniform_range", "heavy_tail")[seed % 3],
                 derive_seed(0xFEE, seed))
    r = heavy_mis_approx(g, seed=derive_seed(0xFEF, seed))
    assert r.diagnostics["mis_valid"]
    assert g.is_independent(r.iset.members)
    assert 4 * (g.max_degree + 1) * r.iset.weight >= g.total_weight()


def test_all_zero_weights_vacuous():
    g = WeightedGraph([0, 1], [(0, 1)], {0: 0, 1: 0})
    r = heavy_mis_approx(g, seed=1)
    assert r.iset.members == frozenset() and r.iset.weight == 0
    assert 4 * (g.max_degree + 1) * 0 >= 0
