import random
from fractions import Fraction

import pytest

from mwisim.algorithms import run_algorithm
from mwisim.engine import run
from mwisim.graphs import GraphError, WeightedGraph, generate
from mwisim.ranking import (BoppanaProgram, boppana_once,
                            check_perm_equivalence, rank_range, rank_rule,
                            seq_boppana)
from mwisim.rng import derive_seed, node_rng


def fastld(g, eps, c=None, seed=0):
    return run_algorithm(g, "fastld", {"eps": eps, "c": c}, seed)


def unit(nodes, edges):
    return WeightedGraph(nodes, edges, {v: 1 for v in nodes})


def ranks_of(g, c, seed):
    """The ranks ``boppana_once(g, c, seed)`` draws."""
    out, _ = run(g, BoppanaProgram(c), seed=seed)
    return {v: r.rank for v, r in out.items()}


def test_rank_rule_examples():
    tri = generate("cycle", {"n": 3}, "unit", 0)
    assert rank_rule(tri, {0: 5, 1: 2, 2: 9}) == frozenset({2})

    k2 = unit([0, 1], [(0, 1)])
    assert rank_rule(k2, {0: 7, 1: 7}) == frozenset()  # tie excludes both

    edgeless = unit(range(4), [])
    assert rank_rule(edgeless, {v: 1 for v in range(4)}) == frozenset(range(4))


def test_boppana_one_round_and_in_range():
    g = generate("gnp", {"n": 64, "p": 0.1}, "unit", 3)
    r = boppana_once(g, c=2, seed=5)
    assert r.stats.rounds == 1
    assert r.stats.messages_sent == 2 * g.m
    assert r.diagnostics == {} and r.stack is None
    ranks = ranks_of(g, 2, 5)
    r_max = rank_range(64, 2)
    assert all(1 <= rank <= r_max for rank in ranks.values())
    # membership is exactly the strict-max rule on the drawn ranks
    assert r.iset.members == rank_rule(g, ranks)


@pytest.mark.parametrize("seed", range(25))
def test_boppana_always_independent(seed):
    rng = random.Random(seed)
    g = generate("gnp", {"n": rng.randint(2, 80), "p": rng.uniform(0.05, 0.5)},
                 "unit", derive_seed(0xAA, seed))
    assert g.is_independent(boppana_once(g, c=2, seed=seed).iset.members)


def test_boppana_edgeless_takes_all():
    g = unit(range(5), [])
    assert boppana_once(g, c=1, seed=0).iset.members == frozenset(range(5))


def test_seq_examples():
    p3 = unit([0, 1, 2], [(0, 1), (1, 2)])
    assert seq_boppana(p3, [2, 0, 1]).members == frozenset({0, 2})

    k4 = generate("clique", {"n": 4}, "unit", 0)
    for perm in ([3, 1, 0, 2], [0, 1, 2, 3]):
        assert seq_boppana(k4, perm).members == frozenset({perm[0]})

    edgeless = unit(range(4), [])
    assert seq_boppana(edgeless, [3, 1, 2, 0]).members == frozenset(range(4))

    with pytest.raises(GraphError, match="permutation"):
        seq_boppana(p3, [0, 1])


def test_perm_equivalence_examples():
    assert check_perm_equivalence(unit([0, 1], [(0, 1)]))
    assert check_perm_equivalence(unit([0, 1, 2], [(0, 1), (1, 2)]))
    assert check_perm_equivalence(unit(range(5), []))
    assert check_perm_equivalence(generate("cycle", {"n": 6}, "unit", 0))
    with pytest.raises(GraphError, match="n <= 9"):
        check_perm_equivalence(unit(range(10), []))


@pytest.mark.parametrize("seed", range(10))
def test_perm_equivalence_random(seed):
    rng = random.Random(seed)
    g = generate("gnp", {"n": rng.randint(2, 6), "p": rng.uniform(0.2, 0.8)},
                 "unit", derive_seed(0xEE, seed))
    assert check_perm_equivalence(g)


def test_rank_collisions_absent_at_width():
    # 10^6 independent pairs from the c=4 range: zero collisions expected
    r_max = rank_range(4096, 4)
    rng = node_rng(123, 0)
    collisions = sum(rng.randint(1, r_max) == rng.randint(1, r_max)
                     for _ in range(10**6))
    assert collisions == 0


def test_fastld_c5():
    g = generate("cycle", {"n": 5}, "unit", 0)
    r = fastld(g, eps=0.5, c=2, seed=7)
    assert len(r.iset.members) == 2
    assert 2 * Fraction(3, 2) * 3 >= 5  # the claimed bound is satisfiable
    assert Fraction(3, 2) * (g.max_degree + 1) * len(r.iset.members) >= g.n


def test_fastld_edgeless():
    g = unit(range(7), [])
    r = fastld(g, eps=1.0, seed=0)
    assert r.iset.members == frozenset(range(7))


def test_fastld_phase_budget():
    g = generate("gnp", {"n": 128, "p": 0.05}, "unit", 1)
    c_rank = 2
    r = fastld(g, eps=0.5, c=c_rank, seed=3)
    t = 16  # ceil(8 / 0.5)
    assert r.diagnostics["phases"] == t
    assert r.stats.rounds <= t * (c_rank + 2)
    assert Fraction(3, 2) * (g.max_degree + 1) * len(r.iset.members) >= g.n


def test_fastld_size_bound_random():
    for seed in range(15):
        g = generate("gnp", {"n": 256, "p": 0.03}, "unit", derive_seed(0xFD, seed))
        r = fastld(g, eps=1.0, seed=seed)
        assert g.is_independent(r.iset.members)
        assert 2 * (g.max_degree + 1) * len(r.iset.members) >= g.n


def test_fastld_2048_statistical():
    # mean degree 30, eps = 1: |I| >= n / (2 (Delta+1)) in every run
    for seed in range(100):
        g = generate("gnp", {"n": 2048, "p": 30 / 2047}, "unit",
                     derive_seed(0xFD17, seed))
        r = fastld(g, eps=1.0, seed=seed)
        assert 2 * (g.max_degree + 1) * len(r.iset.members) >= g.n


def test_rank_range_validates():
    with pytest.raises(GraphError, match="c must be"):
        rank_range(10, 0)
    assert rank_range(2, 1) == 800


@pytest.mark.parametrize("c", [2.5, float("nan"), 0, 2.0])
def test_rank_constant_must_be_an_integer_at_least_one(c):
    with pytest.raises(GraphError, match="c must be an integer >= 1"):
        rank_range(10, c)
    # a direct library call, which no parameter resolution guards
    with pytest.raises(GraphError, match="c must be an integer >= 1"):
        boppana_once(unit([0, 1], [(0, 1)]), c=c)


def test_program_c_parameter_changes_width():
    g = unit([0, 1], [(0, 1)])
    assert all(1 <= r <= 800 for r in ranks_of(g, 1, 9).values())
