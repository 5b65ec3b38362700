"""Differential tests: graph routines against networkx's implementations."""

import random

import pytest

from mwisim.graphs import (WeightedGraph, brute_force_max_is, degeneracy,
                           generate, load, random_tree, save)

nx = pytest.importorskip("networkx")


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from((v, {"weight": w}) for v, w in zip(g.nodes, g.w.tolist()))
    h.add_edges_from(g.edges())
    return h


def _corpus(count, n_max, seed):
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, n_max)
        wm = ("unit", "uniform_range", "heavy_tail")[k % 3]
        if k % 5 == 4:
            yield random_tree(n, k, wm)
        else:
            yield generate("gnp", {"n": n, "p": rng.uniform(0, 0.6)}, wm, k)


def test_degeneracy_is_max_core_number():
    for g in _corpus(60, 80, 1):
        assert degeneracy(g) == max(nx.core_number(_to_nx(g)).values())
    for family in ("cycle", "clique", "star", "path"):
        g = generate(family, {"n": 12}, "unit", 0)
        assert degeneracy(g) == max(nx.core_number(_to_nx(g)).values())


def test_oracle_weight_is_max_weight_clique_of_complement():
    for g in _corpus(60, 14, 2):
        co = nx.complement(_to_nx(g))  # keeps the nodes, not their weights
        nx.set_node_attributes(co, dict(zip(g.nodes, g.w.tolist())), "weight")
        _, weight = nx.max_weight_clique(co, weight="weight")
        assert brute_force_max_is(g).weight == weight


def test_csr_matches_adjacency():
    graphs = list(_corpus(20, 60, 3))
    graphs += [load(save(g)) for g in graphs[:10]]
    graphs += [g.induced(g.mask(v for v in g.nodes if v % 3)) for g in graphs[:10]]
    graphs.append(WeightedGraph([9, 4, 30], [(4, 30)], {4: 1, 9: 2, 30: 3}))
    for g in graphs:
        h = _to_nx(g)
        indptr, nbr = g.csr()
        assert len(indptr) == g.n + 1 and indptr[-1] == 2 * g.m
        for i, v in enumerate(g.nodes):
            row = [g.nodes[j] for j in nbr[indptr[i]:indptr[i + 1]]]
            assert row == list(g.adj[v]) == sorted(h.neighbors(v))
