import pytest

from mwisim.algorithms import RunOutcome, as_inner
from mwisim.cliquecycle import (build_clique_cycle, cycle_order, map_back,
                                max_gap, rand_mis)
from mwisim.engine import RoundStats
from mwisim.graphs import GraphError, IndependentSet, generate
from mwisim.mis import verify_mis


def test_build_4_3():
    cc = build_clique_cycle(4, 3)
    g = cc.graph
    assert g.n == 12
    assert g.m == 4 * (3 + 9)  # 48
    assert {len(g.adj[v]) for v in g.nodes} == {8}  # 3*n1 - 1
    assert set(g.weights.values()) == {1}


def test_build_3_1_is_triangle():
    g = build_clique_cycle(3, 1).graph
    assert g.n == 3 and g.m == 3
    assert {len(g.adj[v]) for v in g.nodes} == {2}


@pytest.mark.parametrize("n0", [4, 5, 9])
def test_build_n_1_is_cycle(n0):
    g = build_clique_cycle(n0, 1).graph
    assert g.n == n0 and g.m == n0
    assert {len(g.adj[v]) for v in g.nodes} == {2}


@pytest.mark.parametrize("n0,n1", [(3, 4), (5, 2), (6, 5)])
def test_build_counts_and_degrees(n0, n1):
    g = build_clique_cycle(n0, n1).graph
    assert g.n == n0 * n1
    assert g.m == n0 * (n1 * (n1 - 1) // 2 + n1 * n1)
    assert {len(g.adj[v]) for v in g.nodes} == {3 * n1 - 1}


def test_build_validates():
    with pytest.raises(GraphError, match="n0 >= 3"):
        build_clique_cycle(2, 4)
    with pytest.raises(GraphError, match="clique size"):
        build_clique_cycle(4, 0)
    with pytest.raises(GraphError, match="distinct"):
        build_clique_cycle(3, 2, base_ids=[0, 0, 1])


def test_composite_ids():
    cc = build_clique_cycle(4, 3, base_ids=[10, 20, 30, 40])
    assert cc.j_bits == 2
    assert cc.vertex_id(1, 1) == (10 << 2) | 1
    assert cc.vertex_id(4, 3) == (40 << 2) | 3
    assert cc.clique_index(cc.vertex_id(2, 3)) == 2
    assert cc.column(3) == tuple((30 << 2) | j for j in (1, 2, 3))
    with pytest.raises(GraphError):
        cc.vertex_id(5, 1)


def test_adjacency_rule():
    cc = build_clique_cycle(6, 2)
    g = cc.graph
    for u in g.nodes:
        iu = cc.clique_index(u)
        for v in g.adj[u]:
            iv = cc.clique_index(v)
            diff = abs(iu - iv)
            assert diff <= 1 or {iu, iv} == {1, 6}


def test_cycle_order():
    c = generate("cycle", {"n": 8}, "unit", 0)
    order = cycle_order(c)
    assert order[0] == 0 and len(order) == 8
    for a, b in zip(order, order[1:] + order[:1]):
        assert b in c.adj[a]
    with pytest.raises(GraphError, match="degree 2"):
        cycle_order(generate("path", {"n": 5}, "unit", 0))


def test_map_back_examples():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 3, base_ids=order)

    single = map_back(c, order, cc, {cc.vertex_id(1, 2)})
    assert single.members == {order[0]}

    empty = map_back(c, order, cc, set())
    assert empty.members == frozenset()

    two = map_back(c, order, cc, {cc.vertex_id(1, 1), cc.vertex_id(3, 2)})
    assert two.members == {order[0], order[2]}

    with pytest.raises(GraphError, match="not independent"):
        map_back(c, order, cc, {cc.vertex_id(1, 1), cc.vertex_id(1, 2)})


def test_max_gap():
    order = list(range(8))
    assert max_gap(order, {0, 4}) == 3
    assert max_gap(order, {0}) == 7
    assert max_gap(order, set()) == 8
    assert max_gap(order, set(range(8))) == 0
    assert max_gap(order, {1, 2}) == 6  # wrap-around run 3..0


def _scripted_alg(picks, diagnostics=None):
    def alg(g1, seed, n_upper):
        # unchecked set: the rejection tests hand rand_mis a dependent one
        return RunOutcome(IndependentSet(frozenset(picks), len(picks)),
                          RoundStats(rounds=3), diagnostics or {})
    return alg


def test_rand_mis_trace_no_gap():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 2, base_ids=order)
    # hits in cliques 1 and 4: J covers everything
    alg = _scripted_alg({cc.vertex_id(1, 1), cc.vertex_id(4, 2)})
    r = rand_mis(c, alg, 2, seed=0)
    assert r.mapped.members == {order[0], order[3]}
    assert r.mis.members == {order[0], order[3]}
    assert r.gap == 2
    assert r.r_small == 100 * 8 * 3 and r.r_large == (100 * 8 + 1) * 3 + 2


def test_rand_mis_trace_fill():
    c = generate("cycle", {"n": 8}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(8, 2, base_ids=order)
    alg = _scripted_alg({cc.vertex_id(1, 1)})  # only u_1 hit
    r = rand_mis(c, alg, 2, seed=0)
    assert r.mapped.members == {order[0]}
    assert r.gap == 7
    ok, violation = verify_mis(c, c.nodes, r.mis.members)
    assert ok, violation
    assert len(r.mis.members) in (3, 4)


def test_rand_mis_rejects_dependent_algorithm_output():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 2, base_ids=order)
    bad = _scripted_alg({cc.vertex_id(1, 1), cc.vertex_id(2, 1)})
    with pytest.raises(GraphError, match="non-independent"):
        rand_mis(c, bad, 2, seed=0)


def test_rand_mis_rejects_nodes_outside_the_clique_cycle():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 2, base_ids=order)
    outside = max(cc.graph.nodes) + 1
    bad = _scripted_alg({cc.vertex_id(1, 1), outside})
    with pytest.raises(GraphError, match="outside"):
        rand_mis(c, bad, 2, seed=0)


def test_rand_mis_rejects_an_invalid_inner_mis():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 2, base_ids=order)
    # an independent set, but the inner black box reports its MIS invalid
    bad = _scripted_alg({cc.vertex_id(1, 1)}, {"mis_valid": False})
    with pytest.raises(GraphError, match="invalid MIS"):
        rand_mis(c, bad, 2, seed=0)


@pytest.mark.parametrize("c_approx", [0.999, 0, -5, float("nan"), float("inf")])
def test_rand_mis_needs_a_finite_constant_of_at_least_one(c_approx):
    c = generate("cycle", {"n": 6}, "unit", 0)

    def never(*args):
        raise AssertionError("inner ran before the constant was checked")

    with pytest.raises(GraphError, match="finite number >= 1"):
        rand_mis(c, never, 2, seed=0, c_approx=c_approx)
    assert rand_mis(c, _scripted_alg(set()), 2, seed=0, c_approx=1).r_small == 100 * 3


@pytest.mark.parametrize("seed", range(5))
def test_rand_mis_sparse_pipeline(seed):
    c = generate("cycle", {"n": 16}, "unit", 0)
    r = rand_mis(c, as_inner("sparse", {"lam": 4.0}, "local"), 4, seed=seed)
    ok, violation = verify_mis(c, c.nodes, r.mis.members)
    assert ok, violation
    assert r.gap <= 8 * max(1, r.inner_stats.rounds)
