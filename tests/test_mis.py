import itertools
import math
import random
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwisim.engine import run, run_on_subgraph
from mwisim.graphs import GraphError, WeightedGraph, generate, random_tree
from mwisim.mis import LubyProgram, greedy_mis, verify_mis
from mwisim.rng import derive_seed


def unit(nodes, edges):
    return WeightedGraph(nodes, edges, {v: 1 for v in nodes})


def verify_mis_walk(g, node_subset, candidate):
    """The reference for ``verify_mis``: the same checks, in the same order,
    walking ``g.adj`` one node at a time."""
    subset = set(node_subset)
    cand = set(candidate)
    stray = cand - subset
    if stray:
        return False, f"candidate node {min(stray)} is outside the subset"
    for v in sorted(cand):
        for u in g.adj[v]:
            if u in cand:
                return False, f"members {min(u, v)} and {max(u, v)} are adjacent"
    for v in sorted(subset):
        if v in cand:
            continue
        if not any(u in cand for u in g.adj[v] if u in subset):
            return False, f"node {v} is neither in the set nor adjacent to it"
    return True, None


def reference_greedy(g, order=None):
    """The greedy scan on ids and sets over ``g.adj``: the reference for
    ``greedy_mis``."""
    chosen = set()
    for v in g.nodes if order is None else order:
        if not any(u in chosen for u in g.adj[v]):
            chosen.add(v)
    return frozenset(chosen)


def scattered(g, rng):
    """``g`` with its nodes renamed to random ids in [0, 2^40), weights kept."""
    ids = dict(zip(g.nodes, rng.sample(range(1 << 40), g.n)))
    return WeightedGraph(ids.values(), [(ids[u], ids[v]) for u, v in g.edges()],
                         {ids[v]: w for v, w in zip(g.nodes, g.w.tolist())})


def family_corpus(rng):
    """Paths, stars, cliques, trees and G(n, p), on their own ids and on
    scattered ones."""
    for k in range(40):
        n = rng.randint(1, 40)
        family = ("path", "star", "clique", "tree", "gnp")[k % 5]
        if family == "tree":
            g = random_tree(n, k, "uniform_range")
        else:
            params = {"n": n, "p": rng.uniform(0.05, 0.5)} if family == "gnp" else {"n": n}
            g = generate(family, params, "uniform_range", k)
        yield g
        yield scattered(g, rng)


def luby_members(g, seed, subset=None):
    subset = g.nodes if subset is None else subset
    out, stats = run_on_subgraph(g, g.mask(subset), LubyProgram(), seed=seed)
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


def shuffled(seed):
    """A ``node_order`` that shuffles the nodes with ``random.Random(seed)``."""
    def order(nodes):
        nodes = list(nodes)
        random.Random(seed).shuffle(nodes)
        return nodes
    return order


def luby_iterations(g, seed, n_upper=None):
    """Luby's kernel and its interpreter in a shuffled order give the same
    outputs and ``RoundStats``; the run's iteration count (two rounds each)."""
    kernel = run(g, LubyProgram(), seed=seed, n_upper=n_upper)
    reference = run(g, LubyProgram(), seed=seed, n_upper=n_upper,
                    node_order=shuffled(seed))
    assert kernel[0].tolist() == reference[0].tolist()
    assert kernel[1] == reference[1]
    return kernel[1].rounds // 2


def test_luby_kernel_draws_word_k_in_iteration_k():
    """Every competitor of iteration k has drawn words 0..k-1 before it, so
    the kernel draws word k for all of them; the interpreter counts each
    node's own draws. Paths and stars leave nodes behind at different
    iterations, and ``n_upper=2`` gives 8-bit values, so equal values are
    broken by id."""
    iterations = []
    for n in range(1, 41):
        for family in ("path", "star"):
            g = generate(family, {"n": n}, "uniform_range", n)
            for seed in range(10):
                for n_upper in (None, 2):
                    iterations.append(luby_iterations(g, seed, n_upper))
    assert max(iterations) >= 3 and {0, 1, 2, 3} <= set(iterations)
    # every node isolated: every one joins in init, no iteration runs
    assert luby_iterations(unit(range(7), []), 3) == 0
    assert run(unit(range(7), []), LubyProgram(), seed=3)[0].all()
    # isolated nodes among a path and a star
    mixed = unit(range(14), [(0, 1), (1, 2), (2, 3), (3, 4), (6, 7), (6, 8), (6, 9),
                             (6, 10)])
    for seed in range(20):
        luby_iterations(mixed, seed, 2)
        out, _ = run(mixed, LubyProgram(), seed=seed)
        assert out[[5, 11, 12, 13]].all()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.floats(0.0, 0.5), st.integers(0, 2**32),
       st.integers(0, 2**64 - 1), st.sampled_from([None, 2, 16]))
def test_luby_kernel_equals_the_shuffled_interpreter_on_gnp(n, p, graph_seed, seed,
                                                            n_upper):
    g = generate("gnp", {"n": n, "p": p}, "unit", graph_seed)
    luby_iterations(g, seed, n_upper)


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


def test_greedy_equals_the_adj_reference():
    g = unit([42, 3, 10, 7], [(42, 3), (3, 10), (10, 7)])
    for perm in itertools.permutations(g.nodes):
        assert greedy_mis(g, perm).members == reference_greedy(g, perm)
        assert greedy_mis(g, perm + perm[:2]).members == reference_greedy(g, perm)
    repeated = [10, 10, 3]
    assert greedy_mis(g, repeated).members == reference_greedy(g, repeated) == {10}
    rng = random.Random(0x6EED)
    for g in family_corpus(rng):
        nodes = list(g.nodes)
        subset = rng.sample(nodes, rng.randint(0, g.n))
        # the hits first, then every node, as ``rand_mis`` scans
        hits = sorted(rng.choices(nodes, k=rng.randint(0, 5)))
        for order in (None, rng.sample(nodes, g.n), subset, subset + subset[::-1],
                      hits + nodes, rng.choices(nodes, k=2 * g.n)):
            iset = greedy_mis(g, order)
            want = reference_greedy(g, order)
            assert iset.members == want, (g, order)
            assert iset.weight == g.total_weight(want)


def test_greedy_refuses_an_unknown_id_as_the_reference_does():
    g = unit([42, 3, 10, 7], [(42, 3), (3, 10), (10, 7)])
    for order in ([5], [42, 5], [42, 3, 10, 7, 8]):
        with pytest.raises(KeyError) as want:
            reference_greedy(g, order)
        with pytest.raises(KeyError) as got:
            greedy_mis(g, order)
        assert got.value.args == want.value.args


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


def test_verify_mis_matches_the_walk():
    # spread-out ids, so that a mix-up of positions and ids shows
    rng = random.Random(0x7E51)
    kinds = ("valid", "dependent", "non-maximal", "stray", "random")
    seen = set()
    for case in range(400):
        n = rng.randint(0, 30)
        ids = rng.sample(range(1 << 40), n)
        edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                 if rng.random() < 0.2]
        g = unit(ids, edges)
        subset = (list(g.nodes) if case % 2 else
                  [v for v in g.nodes if rng.random() < 0.7])
        order = rng.sample(subset, len(subset))
        cand = set(greedy_mis(g.induced(g.mask(subset)), order).members)
        kind = rng.choice(kinds)
        if kind == "dependent" and len(cand) < len(subset):
            cand.add(rng.choice([v for v in subset if v not in cand]))
        elif kind == "non-maximal" and cand:
            cand.discard(rng.choice(sorted(cand)))
        elif kind == "stray":
            cand.add(rng.choice([v for v in g.nodes if v not in subset] or [1 << 41]))
        elif kind == "random":
            cand = {v for v in subset if rng.random() < 0.3}
        want = verify_mis_walk(g, subset, cand)
        assert verify_mis(g, subset, cand) == want, (case, kind)
        seen.add(want[1] and want[1].split()[-1])
    # every outcome occurs: valid, stray, adjacent members, not maximal
    assert seen == {None, "subset", "adjacent", "it"}


def test_verify_mis_refuses_ids_outside_the_graph():
    g = generate("path", {"n": 4}, "unit", 0)
    with pytest.raises(GraphError, match="node 9 is not in the graph"):
        verify_mis(g, [0, 9], {0})
    with pytest.raises(GraphError, match="node 7 is not in the graph"):
        verify_mis(g, [1, 7, 9], {7})
    # a stray candidate is reported before any id is looked up
    assert verify_mis(g, [0], {9}) == (False, "candidate node 9 is outside the subset")
