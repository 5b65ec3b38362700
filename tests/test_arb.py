import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwisim.algorithms import RunOutcome, as_inner, run_algorithm
from mwisim.arb import arb_approx, arb_phase_count, arb_reduce
from mwisim.boost import (BoostPhaseError, ResidualUpdateProgram,
                          check_stack_property, local_ratio)
from mwisim.engine import RoundStats, run
from mwisim.graphs import (GraphError, IndependentSet, WeightedGraph,
                           brute_force_max_is, degeneracy, generate,
                           random_tree)
from mwisim.rng import derive_seed


def id_weights(g):
    """``g``'s weights keyed by node id, for the id-keyed reference code."""
    return dict(zip(g.nodes, g.w.tolist()))


def _boosted(eps):
    """The inner algorithm the harness gives arb: boosting the good nodes."""
    return as_inner("boost-heavy", {"eps": eps})


def _first_phase_nodes(g, cap):
    """The nodes the inner algorithm sees in local_ratio's first phase."""
    seen = []

    def inner(g_sub, seed, n_upper):
        seen.append(frozenset(g_sub.nodes))
        return RunOutcome(IndependentSet(frozenset(), 0), RoundStats())

    local_ratio(g, inner, 1, 0, 0, "congest", None, degree_cap=cap)
    return seen[0] if seen else frozenset()


def test_low_degree_examples():
    tree = random_tree(30, 3)
    low = _first_phase_nodes(tree, 4)
    assert low == frozenset(v for v in tree.nodes if len(tree.adj[v]) <= 4)

    k10 = generate("clique", {"n": 10}, "unit", 0)
    assert _first_phase_nodes(k10, 8) == frozenset()  # degrees 9 > 8

    edgeless = WeightedGraph(range(5), [], {v: 1 for v in range(5)})
    assert _first_phase_nodes(edgeless, 28) == frozenset(range(5))

    with pytest.raises(GraphError, match="alpha"):
        arb_approx(k10, alpha=0, inner=_boosted(0.5))


def test_arb_reduce_star():
    # center weight 100 with 5 leaves of weight 1, alpha = 1
    g = WeightedGraph(range(6), [(0, i) for i in range(1, 6)],
                      {0: 100, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
    selected = {1, 3}
    w2 = arb_reduce(id_weights(g), selected, g)
    assert w2 == {0: 100 - 2, 1: 0, 2: 1, 3: 0, 4: 1, 5: 1}
    # the leaves have degree <= 4 * alpha and leave with the phase; the
    # center, of degree 5, is the one survivor
    low = frozenset(range(1, 6))
    assert [v for v in g.nodes if w2[v] > 0 and v not in low] == [0]


def test_arb_reduce_identity_when_nothing_low():
    g = generate("clique", {"n": 10}, "unit", 0)
    assert arb_reduce(id_weights(g), set(), g) == id_weights(g)


def test_arb_reduce_single_node():
    g = WeightedGraph([0], [], {0: 7})
    assert arb_reduce(id_weights(g), {0}, g) == {0: 0}


def test_arb_reduce_preconditions():
    g = generate("path", {"n": 4}, "unit", 0)
    with pytest.raises(GraphError, match="not independent"):
        arb_reduce(id_weights(g), {0, 1}, g)
    with pytest.raises(TypeError):  # the zeroed set is gone
        arb_reduce(id_weights(g), {0}, frozenset(g.nodes), g)


def test_phase_count():
    assert arb_phase_count(1) == 1
    assert arb_phase_count(2) == 2
    assert arb_phase_count(24) == 6   # ceil(log2 24) = 5
    assert arb_phase_count(1024) == 11


def test_arb_edgeless_one_phase():
    g = WeightedGraph(range(4), [], {v: v + 1 for v in range(4)})
    r = arb_approx(g, alpha=1, inner=_boosted(0.5), seed=0)
    assert r.iset.members == frozenset(range(4))
    assert r.diagnostics["sizes"][1] == 0


def test_arb_path_example():
    g = WeightedGraph(range(3), [(0, 1), (1, 2)], {0: 3, 1: 5, 2: 3})
    opt = brute_force_max_is(g).weight  # 6
    r = arb_approx(g, alpha=1, inner=_boosted(0.25), seed=2)
    assert 8 * Fraction(5, 4) * 1 * r.iset.weight >= opt
    assert r.diagnostics["sizes"][-1] == 0
    assert check_stack_property(r.iset, r.stack)


@pytest.mark.parametrize("seed", range(25))
def test_arb_trees_vs_oracle(seed):
    n = random.Random(seed).randint(4, 20)
    g = random_tree(n, seed, weight_model=("uniform_range", "heavy_tail")[seed % 2])
    opt = brute_force_max_is(g).weight
    eps = Fraction(1, 2)
    r = arb_approx(g, alpha=1, inner=_boosted(float(eps)),
                   seed=derive_seed(0xA4, seed))
    assert 8 * (1 + eps) * 1 * r.iset.weight >= opt
    sizes = r.diagnostics["sizes"]
    assert sizes[-1] == 0
    assert r.phases == arb_phase_count(n)
    for a, b in zip(sizes, sizes[1:]):
        assert 2 * b <= a


def test_arb_halving_with_degeneracy_alpha():
    for seed in range(10):
        g = generate("gnp", {"n": 22, "p": 0.18}, "uniform_range", seed)
        alpha = max(1, degeneracy(g))
        r = arb_approx(g, alpha=alpha, inner=_boosted(0.5), seed=seed)
        sizes = r.diagnostics["sizes"]
        for a, b in zip(sizes, sizes[1:]):
            assert 2 * b <= a
        assert sizes[-1] == 0
        assert check_stack_property(r.iset, r.stack)


def test_arb_inner_failure_reports_phase():
    class Bad:
        def __call__(self, g_sub, seed, n_upper):
            everything = frozenset(g_sub.nodes)
            return RunOutcome(IndependentSet(everything, g_sub.total_weight()),
                              RoundStats())

    g = generate("cycle", {"n": 8}, "unit", 0)
    with pytest.raises(BoostPhaseError, match="phase 1"):
        arb_approx(g, alpha=2, inner=Bad(), seed=0)


def test_arb_rejects_bad_parameters():
    g = generate("path", {"n": 3}, "unit", 0)
    with pytest.raises(GraphError, match="alpha"):
        arb_approx(g, alpha=0, inner=_boosted(0.5))
    with pytest.raises(GraphError, match="eps"):
        run_algorithm(g, "arb", {"alpha": 1, "eps": -1.0}, 0)


def test_arb_rejects_a_non_finite_eps_under_its_own_name():
    g = generate("path", {"n": 3}, "unit", 0)
    with pytest.raises(GraphError, match="algorithm 'arb': eps must be finite"):
        run_algorithm(g, "arb", {"alpha": 2, "eps": float("nan")}, 0)


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
        out, stats = run(g, ResidualUpdateProgram(selected),
                         seed=derive_seed(0xA8F, k))
        assert dict(zip(g.nodes, out.tolist())) == arb_reduce(id_weights(g), selected, g)
        assert stats.rounds == 1
        assert stats.messages_sent == sum(len(g.adj[v]) for v in selected)


def _scripted(pick):
    """An inner algorithm that selects ``pick(g_sub)`` and costs nothing."""
    def inner(g_sub, seed, n_upper):
        return RunOutcome(IndependentSet(frozenset(pick(g_sub)), 0), RoundStats())
    return inner


def _after_one_phase(g, inner, cap, mode="congest"):
    """One ``local_ratio`` phase of ``inner`` under ``cap``: its outcome and
    the residual graph the phase leaves, as {id: residual} (None when no
    phase ran)."""
    left = []
    induced = WeightedGraph.induced

    def spy(self, keep, weights=None):
        sub = induced(self, keep, weights)
        if weights is not None:  # only the phase's last step sets new weights
            left.append(sub)
        return sub

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WeightedGraph, "induced", spy)
        r = local_ratio(g, inner, 1, 0, 0, mode, None, degree_cap=cap)
    return r, (dict(zip(left[0].nodes, left[0].w.tolist())) if left else None)


@pytest.mark.parametrize("cap", [None, 1])
def test_reduction_past_int64_min_agrees_with_the_mirror(cap):
    # three leaves announce 2^62 each to a centre of weight 1: its residual
    # 1 - 3*2^62 is below -2^63, and every form returns it exactly
    g = WeightedGraph(range(4), [(0, 1), (0, 2), (0, 3)],
                      {0: 1, 1: 2**62, 2: 2**62, 3: 2**62})
    selected = frozenset({1, 2, 3})
    want = [1 - 3 * 2**62, 0, 0, 0]
    assert arb_reduce(id_weights(g), selected, g) == dict(enumerate(want))
    for node_order in (None, list):
        out, _ = run(g, ResidualUpdateProgram(selected), mode="local",
                     node_order=node_order)
        assert out.tolist() == want
    # the phase drops every node, with or without the cap (the leaves)
    r, left = _after_one_phase(g, _scripted(lambda g_sub: selected), cap, "local")
    assert left == {} and r.diagnostics["sizes"] == [4, 0]
    assert r.iset.members == selected


def _check_capped_phase(g, cap, pick):
    """A capped phase drops every node of degree <= cap in the positive
    residual graph and leaves every other node at ``arb_reduce``'s residual,
    if positive; the reduction is the phase's one charged round."""
    g_pos = g.induced(g.w > 0)
    low = frozenset(v for v in g_pos.nodes if len(g_pos.adj[v]) <= cap)
    chosen = []

    def recorded(g_sub):
        assert frozenset(g_sub.nodes) == low
        chosen.append(frozenset(pick(g_sub)))
        return chosen[-1]

    r, left = _after_one_phase(g, _scripted(recorded), cap)
    if not low:
        assert left is None and not chosen and r.stats.rounds == 0
        return
    (selected,) = chosen
    w = arb_reduce(id_weights(g_pos), selected, g_pos)
    assert left == {v: x for v, x in w.items() if x > 0 and v not in low}
    assert not low & set(left)
    assert r.stats.rounds == 1
    assert r.stats.messages_sent == sum(len(g_pos.adj[v]) for v in selected)


def test_capped_phase_drops_the_low_nodes_of_a_star():
    g = WeightedGraph(range(6), [(0, i) for i in range(1, 6)],
                      {0: 100, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
    for cap, selected in ((4, {1, 3}), (4, set()), (5, {0}), (0, set())):
        _check_capped_phase(g, cap, lambda g_sub: selected)


def test_capped_phase_drops_the_path_of_a_clique_and_path():
    # K5 on 0..4, its node 4 joined to the path 5..9: nodes 0..3 have
    # degree 4, node 4 has 5, the path's nodes 2 and its end 9 has 1
    k, length = 5, 5
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, i + 1) for i in range(k - 1, k + length - 1)]
    n = k + length
    g = WeightedGraph(range(n), edges, {v: 10 + 7 * v for v in range(n)})
    for cap, selected in ((2, {5, 7, 9}), (2, {6, 8}), (4, {0, 6, 8}),
                          (5, {4, 6, 9}), (1, {9})):
        _check_capped_phase(g, cap, lambda g_sub: selected)


@given(st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 2**32),
       st.integers(0, 6), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_capped_phase_matches_the_mirror_then_the_drop(n, p, graph_seed, cap, pick_seed):
    g = generate("gnp", {"n": n, "p": p}, ("uniform_range", "heavy_tail")[graph_seed % 2],
                 graph_seed)
    rng = random.Random(pick_seed)
    _check_capped_phase(g, cap, lambda g_sub: _random_independent(
        g_sub, rng, rng.randint(0, g_sub.n)))


def test_arb_rounds_are_inner_rounds_plus_one_per_low_phase():
    for seed in range(8):
        g = generate("gnp", {"n": 40, "p": 0.15}, "heavy_tail", derive_seed(0xA8C, seed))
        alpha = max(1, degeneracy(g) // 2)  # leaves high-degree nodes for later
        inner_rounds = []
        boosted = _boosted(0.5)

        def inner(g_sub, s, n_upper):
            out = boosted(g_sub, s, n_upper)
            inner_rounds.append(out.stats.rounds)
            return out

        r = arb_approx(g, alpha=alpha, inner=inner, seed=seed)
        # replay the phases with the sequential mirror: the inner algorithm
        # and the reduction round run exactly in phases with a low-degree node
        w = id_weights(g)
        low_phases = 0
        for frame, size in zip(r.stack, r.diagnostics["sizes"]):
            active = [v for v in g.nodes if w[v] > 0]
            assert size == len(active)
            g_i = g.induced(g.mask(active), [w[v] for v in g.nodes])
            low = frozenset(v for v in active if len(g_i.adj[v]) <= 4 * alpha)
            assert frame.members <= low
            low_phases += bool(low)
            w = arb_reduce(w, frame.members, g)
            w.update(dict.fromkeys(low, 0))  # the low nodes leave with the phase
        assert r.diagnostics["sizes"][-1] == sum(1 for v in g.nodes if w[v] > 0)
        assert low_phases == len(inner_rounds)
        assert r.stats.rounds == sum(inner_rounds) + low_phases
        assert len(r.stats.per_round_messages) == r.stats.rounds
    # no low-degree node in any phase: nothing runs and nothing is charged
    k10 = generate("clique", {"n": 10}, "unit", 0)
    r = arb_approx(k10, alpha=2, inner=_boosted(0.5), seed=0)
    assert r.stats.rounds == 0 and set(r.diagnostics["sizes"]) == {10}


def test_c10_arb_charges_its_reduction_rounds():
    g = generate("gnp", {"n": 60, "p": 0.12}, "uniform_range", 99)
    out = run_algorithm(g, "arb", {"eps": 0.5}, 7)
    assert out.stats.rounds == 16
    assert out.stats.messages_sent == 1458


def test_arb_zero_weight_nodes_leave_before_phase_one():
    rng = random.Random(0xA20)
    eps = Fraction(1, 2)
    for k in range(20):
        n = rng.randint(4, 18)
        base = generate("gnp", {"n": n, "p": rng.uniform(0.1, 0.4)},
                        ("uniform_range", "heavy_tail")[k % 2], derive_seed(0xA20, k))
        weights = [0 if rng.random() < 0.3 else w for w in base.w.tolist()]
        g = base.induced(base.mask(base.nodes), weights)
        alpha = max(1, degeneracy(g))
        out = run_algorithm(g, "arb", {"eps": float(eps), "alpha": alpha},
                            derive_seed(0xA21, k))
        sizes = out.diagnostics["sizes"]
        assert sizes[0] == sum(1 for w in weights if w > 0)
        assert sizes[-1] == 0
        assert all(weights[v] > 0 for f in out.stack for v in f.members)
        assert 8 * (1 + eps) * alpha * out.iset.weight >= brute_force_max_is(g).weight
