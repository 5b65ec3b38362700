import math
import random
from itertools import compress

import pytest

from mwisim.engine import run, run_on_subgraph
from mwisim.graphs import WeightedGraph, generate, random_tree
from mwisim.mis import LubyProgram, greedy_mis, verify_mis
from mwisim.rng import derive_seed


def unit(nodes, edges):
    return WeightedGraph(nodes, edges, {v: 1 for v in nodes})


def luby_members(g, seed, subset=None):
    subset = g.nodes if subset is None else subset
    out, stats = run_on_subgraph(g, subset, LubyProgram(), seed=seed)
    return set(compress(sorted(subset), out)), stats


def test_edgeless_all_join():
    g = unit(range(6), [])
    members, stats = luby_members(g, seed=1)
    assert members == set(range(6))
    assert stats.rounds == 0  # no conflicts to resolve


def test_single_edge_one_endpoint():
    for seed in range(10):
        members, _ = luby_members(unit([0, 1], [(0, 1)]), seed)
        assert len(members) == 1


def test_c5_seed42():
    g = generate("cycle", {"n": 5}, "unit", 0)
    members, _ = luby_members(g, seed=42)
    assert len(members) == 2
    ok, violation = verify_mis(g, g.nodes, members)
    assert ok, violation


def test_isolated_subset_node_joins_immediately():
    g = generate("cycle", {"n": 3}, "unit", 0)
    members, stats = luby_members(g, seed=5, subset=[1])
    assert members == {1}
    assert stats.rounds == 0


@pytest.mark.parametrize("seed", range(40))
def test_luby_valid_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 200)
    g = generate("gnp", {"n": n, "p": rng.uniform(0.01, 0.5)}, "unit",
                 derive_seed(0x77, seed))
    members, stats = luby_members(g, derive_seed(0x78, seed))
    ok, violation = verify_mis(g, g.nodes, members)
    assert ok, violation
    assert stats.rounds <= 8 * math.log2(max(n, 2)) + 16  # loose per-run guard


def test_luby_round_budget_rate():
    # at most 1% of 200 runs over 8*log2(n) rounds, every run a valid MIS
    rng = random.Random(0x1B)
    slow = 0
    for k in range(200):
        n = rng.randint(2, 200)
        g = generate("gnp", {"n": n, "p": rng.uniform(0.02, 0.4)}, "unit",
                     derive_seed(0x1B, k))
        members, stats = luby_members(g, derive_seed(0x1B1B, k))
        ok, violation = verify_mis(g, g.nodes, members)
        assert ok, violation
        slow += stats.rounds > 8 * math.log2(n)
    assert slow <= 2


def test_luby_on_subgraph_is_mis_of_subgraph_only():
    g = generate("cycle", {"n": 8}, "unit", 0)
    subset = [0, 1, 2, 3]
    members, _ = luby_members(g, 3, subset=subset)
    ok, violation = verify_mis(g, subset, members)
    assert ok, violation


def test_greedy_examples():
    p3 = unit([0, 1, 2], [(0, 1), (1, 2)])
    assert greedy_mis(p3).members == frozenset({0, 2})
    k5 = generate("clique", {"n": 5}, "unit", 0)
    assert greedy_mis(k5).members == frozenset({0})
    empty = unit(range(4), [])
    assert greedy_mis(empty).members == frozenset(range(4))


def test_greedy_follows_the_given_order():
    p3 = unit([0, 1, 2], [(0, 1), (1, 2)])
    assert greedy_mis(p3, [1, 0, 2]).members == frozenset({1})
    assert greedy_mis(p3, [2, 1, 0]).members == frozenset({0, 2})


def test_greedy_always_maximal():
    for seed in range(20):
        rng = random.Random(seed)
        g = random_tree(rng.randint(2, 60), seed)
        shuffled = list(g.nodes)
        rng.shuffle(shuffled)
        for order in (None, shuffled):
            iset = greedy_mis(g, order)
            ok, violation = verify_mis(g, g.nodes, iset.members)
            assert ok, violation


def test_verify_mis_examples():
    c5 = generate("cycle", {"n": 5}, "unit", 0)
    assert verify_mis(c5, c5.nodes, {0, 2}) == (True, None)
    ok, violation = verify_mis(c5, c5.nodes, {0})
    assert not ok and "neither in the set nor adjacent" in violation
    assert verify_mis(c5, [], set()) == (True, None)
    ok, violation = verify_mis(c5, c5.nodes, {0, 1})
    assert not ok and "adjacent" in violation
    ok, violation = verify_mis(c5, [0, 1], {2})
    assert not ok and "outside the subset" in violation
