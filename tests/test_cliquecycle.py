import random

import pytest

from mwisim.algorithms import RunOutcome, as_inner
from mwisim.cliquecycle import build_clique_cycle, cycle_order, max_gap, rand_mis
from mwisim.engine import RoundStats
from mwisim.graphs import GraphError, IndependentSet, WeightedGraph, generate, load
from mwisim.mis import verify_mis


def vertex_id(cc, i, j):
    """The id of v_ij, clique i and member j (both from 1), in build ``cc``."""
    if not (1 <= i <= cc.n0 and 1 <= j <= cc.n1):
        raise GraphError(f"no vertex ({i}, {j}) in a ({cc.n0}, {cc.n1}) build")
    return (cc.base_ids[i - 1] << cc.j_bits) | j


def test_build_4_3():
    cc = build_clique_cycle(4, 3)
    g = cc.graph
    assert g.n == 12
    assert g.m == 4 * (3 + 9)  # 48
    assert {len(g.adj[v]) for v in g.nodes} == {8}  # 3*n1 - 1
    assert set(g.w.tolist()) == {1}


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
    with pytest.raises(GraphError, match="distinct"):
        build_clique_cycle(3, 2, base_ids=[0, 1])
    with pytest.raises(GraphError, match="non-negative"):
        build_clique_cycle(3, 2, base_ids=[0, -1, 1])
    top = (1 << 61) - 1  # j_bits = 2 for n1 = 3: ids up to top << 2 | 3
    assert build_clique_cycle(3, 3, base_ids=[top, 0, 1]).graph.nodes[-1] == 2**63 - 1
    with pytest.raises(GraphError, match=rf"identifier {2**63 + 3} exceeds 64-bit"):
        build_clique_cycle(3, 3, base_ids=[top + 1, 0, 1])


@pytest.mark.parametrize("n0,n1,base_ids", [(3, 1, None), (4, 3, None),
                                            (6, 2, [50, 10, 40, 0, 30, 20]),
                                            (5, 4, [7, 3, 9, 1, 2**40])])
def test_build_equals_the_edge_rule(n0, n1, base_ids):
    cc = build_clique_cycle(n0, n1, base_ids)
    ids = [[vertex_id(cc, i, j) for j in range(1, n1 + 1)] for i in range(1, n0 + 1)]
    edges = [(u, v) for i in range(n0) for a, u in enumerate(ids[i])
             for v in ids[i][a + 1:] + ids[(i + 1) % n0]]
    nodes = [v for clique in ids for v in clique]
    assert cc.graph == WeightedGraph(nodes, edges, {v: 1 for v in nodes})


def test_composite_ids():
    cc = build_clique_cycle(4, 3, base_ids=[10, 20, 30, 40])
    assert cc.j_bits == 2
    assert vertex_id(cc, 1, 1) == (10 << 2) | 1
    assert vertex_id(cc, 4, 3) == (40 << 2) | 3
    assert vertex_id(cc, 2, 3) >> cc.j_bits == 20
    assert all(vertex_id(cc, i, j) >> cc.j_bits == cc.base_ids[i - 1]
               for i in range(1, 5) for j in range(1, 4))
    with pytest.raises(GraphError):
        vertex_id(cc, 5, 1)


def test_adjacency_rule():
    cc = build_clique_cycle(6, 2, base_ids=[50, 10, 40, 0, 30, 20])
    g = cc.graph
    for u in g.nodes:
        iu = cc.base_ids.index(u >> cc.j_bits) + 1
        for v in g.adj[u]:
            iv = cc.base_ids.index(v >> cc.j_bits) + 1
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


def reference_cycle_order(c):
    """The cycle walk on ids over ``c.adj``: the reference for ``cycle_order``."""
    if c.n < 3 or any(len(c.adj[v]) != 2 for v in c.nodes):
        raise GraphError("not a cycle: every node must have degree 2")
    start = c.nodes[0]
    order = [start, min(c.adj[start])]
    while True:
        prev, cur = order[-2], order[-1]
        a, b = c.adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        order.append(nxt)
    if len(order) != c.n:
        raise GraphError("not a cycle: graph is disconnected")
    return order


def loaded(ids, edges):
    """The unit-weight graph on ``ids`` and ``edges`` through ``load``, with
    its node and edge lines shuffled."""
    rng = random.Random(len(ids))
    lines = [f"{v} 1" for v in ids]
    rng.shuffle(lines)
    pairs = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(pairs)
    return load("\n".join([f"{len(ids)} {len(edges)}", *lines, *pairs]) + "\n")


def test_cycle_order_equals_the_adj_reference():
    rng = random.Random(0xC1C)
    for n in (3, 4, 5, 8, 13, 32, 64):
        for _ in range(4):
            ids = rng.sample(range(10**9), n)  # ``ids`` in cyclic order
            c = loaded(ids, list(zip(ids, ids[1:] + ids[:1])))
            order = cycle_order(c)
            assert order == reference_cycle_order(c)
            start = ids.index(order[0])
            assert order[0] == min(ids)
            assert order in (ids[start:] + ids[:start], ids[start::-1] + ids[:start:-1])
    # not cycles: a path, a star, a triangle plus an edge, two triangles, K4, a lone edge
    ids = rng.sample(range(10**9), 6)
    messages = set()
    for edges in ([(ids[0], ids[1]), (ids[1], ids[2])],
                  [(ids[0], v) for v in ids[1:]],
                  [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0]), (ids[3], ids[4])],
                  [(ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0]),
                   (ids[3], ids[4]), (ids[4], ids[5]), (ids[5], ids[3])],
                  [(u, v) for i, u in enumerate(ids[:4]) for v in ids[i + 1:4]],
                  [(ids[0], ids[1])]):
        c = loaded(sorted({v for e in edges for v in e}), edges)
        with pytest.raises(GraphError) as want:
            reference_cycle_order(c)
        with pytest.raises(GraphError) as got:
            cycle_order(c)
        assert str(got.value) == str(want.value)
        messages.add(str(got.value))
    assert messages == {"not a cycle: every node must have degree 2",
                        "not a cycle: graph is disconnected"}


def test_max_gap():
    order = list(range(8))
    assert max_gap(order, {0, 4}) == 3
    assert max_gap(range(8), iter([0, 4])) == 3  # members read once
    assert max_gap(order, {0}) == 7
    assert max_gap(order, set()) == 8
    assert max_gap(order, set(range(8))) == 0
    assert max_gap(order, {1, 2}) == 6  # wrap-around run 3..0


def reference_max_gap(order, members):
    """The longest run outside ``members`` by a scan of the rotated flags."""
    member = set(members)
    flags = [v in member for v in order]
    if not any(flags):
        return len(order)
    if all(flags):
        return 0
    # rotate so the run never wraps
    first = flags.index(True)
    rotated = flags[first:] + flags[:first]
    best = cur = 0
    for f in rotated:
        cur = 0 if f else cur + 1
        best = max(best, cur)
    return best


def test_max_gap_equals_the_run_scan():
    rng = random.Random(0xC9)
    for _ in range(300):
        n = rng.randint(1, 40)
        order = rng.sample(range(10 * n), n)
        outside = rng.sample(range(10 * n, 10 * n + 5), rng.randint(0, 3))
        for members in (set(rng.sample(order, rng.randint(0, n))) | set(outside),
                        set(outside), set(order), {*order, *outside}):
            want = reference_max_gap(order, members)
            for got in (max_gap(order, members), max_gap(order, iter(members))):
                assert type(got) is int and got == want


def _scripted_alg(picks, diagnostics=None):
    def alg(g1, seed, n_upper):
        # unchecked set: the rejection tests hand rand_mis a dependent one
        return RunOutcome(IndependentSet(frozenset(picks), len(picks)),
                          RoundStats([0] * 3), diagnostics or {})
    return alg


def test_rand_mis_maps_each_hit_to_its_cycle_node():
    # a cycle whose ids are not in cyclic order: 0-7-3-12-5-9-0
    ids = [0, 7, 3, 12, 5, 9]
    c = WeightedGraph(ids, zip(ids, ids[1:] + ids[:1]), {v: 1 for v in ids})
    order = cycle_order(c)
    cc = build_clique_cycle(6, 3, base_ids=order)
    for hits, mapped in (({vertex_id(cc, 1, 2)}, [order[0]]),
                         (set(), []),
                         ({vertex_id(cc, 1, 1), vertex_id(cc, 3, 2)},
                          sorted([order[0], order[2]]))):
        r = rand_mis(c, _scripted_alg(hits), 3, seed=0)
        assert r.diagnostics["mapped"] == mapped
        assert set(mapped) <= r.iset.members
        ok, violation = verify_mis(c, c.nodes, r.iset.members)
        assert ok, violation


def test_rand_mis_trace_no_gap():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 2, base_ids=order)
    # hits in cliques 1 and 4: J covers everything
    alg = _scripted_alg({vertex_id(cc, 1, 1), vertex_id(cc, 4, 2)})
    r = rand_mis(c, alg, 2, seed=0)
    assert isinstance(r, RunOutcome) and r.stats == RoundStats([0] * 3)
    assert r.iset.members == {order[0], order[3]}
    assert r.diagnostics == {"mapped": sorted([order[0], order[3]]),
                             "max_gap": 2, "r_small": 100 * 8 * 3,
                             "r_large": (100 * 8 + 1) * 3 + 2}


def test_rand_mis_trace_fill():
    c = generate("cycle", {"n": 8}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(8, 2, base_ids=order)
    alg = _scripted_alg({vertex_id(cc, 1, 1)})  # only u_1 hit
    r = rand_mis(c, alg, 2, seed=0)
    assert r.diagnostics["mapped"] == [order[0]]
    assert r.diagnostics["max_gap"] == 7
    ok, violation = verify_mis(c, c.nodes, r.iset.members)
    assert ok, violation
    assert len(r.iset) in (3, 4)


def test_rand_mis_rejects_dependent_algorithm_output():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 2, base_ids=order)
    bad = _scripted_alg({vertex_id(cc, 1, 1), vertex_id(cc, 2, 1)})
    with pytest.raises(GraphError, match="non-independent"):
        rand_mis(c, bad, 2, seed=0)


def test_rand_mis_rejects_nodes_outside_the_clique_cycle():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 2, base_ids=order)
    outside = max(cc.graph.nodes) + 1
    bad = _scripted_alg({vertex_id(cc, 1, 1), outside})
    with pytest.raises(GraphError, match="outside"):
        rand_mis(c, bad, 2, seed=0)


def test_rand_mis_rejects_an_invalid_inner_mis():
    c = generate("cycle", {"n": 6}, "unit", 0)
    order = cycle_order(c)
    cc = build_clique_cycle(6, 2, base_ids=order)
    # an independent set, but the inner black box reports its MIS invalid
    bad = _scripted_alg({vertex_id(cc, 1, 1)}, {"mis_valid": False})
    with pytest.raises(GraphError, match="invalid MIS"):
        rand_mis(c, bad, 2, seed=0)


@pytest.mark.parametrize("seed", range(5))
def test_rand_mis_sparse_pipeline(seed):
    c = generate("cycle", {"n": 16}, "unit", 0)
    r = rand_mis(c, as_inner("sparse", {"lam": 4.0}, "local"), 4, seed=seed)
    ok, violation = verify_mis(c, c.nodes, r.iset.members)
    assert ok, violation
    assert r.diagnostics["max_gap"] <= 8 * max(1, r.stats.rounds)


def test_rand_mis_checks_the_clique_cycle_set_once(monkeypatch):
    # in run_inner, on a mask; the sparse pipeline (whose maximality check
    # scans the pairs itself) and the mapping back add none
    checked = []
    independent = WeightedGraph._independent

    def counted(self, inside):
        checked.append(self.n)
        return independent(self, inside)

    monkeypatch.setattr(WeightedGraph, "_independent", counted)
    c = generate("cycle", {"n": 32}, "unit", 0)
    rand_mis(c, as_inner("sparse", {"lam": 4.0}, "local"), 16)
    assert checked.count(32 * 16) == 1
