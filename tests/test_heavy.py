import random
from itertools import compress

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mwisim import heavy
from mwisim.engine import run
from mwisim.graphs import INT64_MAX, GraphError, WeightedGraph, generate
from mwisim.heavy import LocalStatsProgram, heavy_mis_approx, is_good
from mwisim.rng import derive_seed


def star_1_10():
    return WeightedGraph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)],
                         {0: 1, 1: 10, 2: 10, 3: 10})


def good_nodes(g):
    """The nodes whose output from the statistics kernel is the good bit;
    LOCAL mode, so weights near INT64_MAX are not refused as too wide."""
    out, _ = run(g, LocalStatsProgram(), mode="local")
    return frozenset(compress(g.nodes, out))


def _reference_stats(g):
    """(deg, delta, s) per node by its definition, one neighborhood at a time."""
    w = dict(zip(g.nodes, g.w.tolist()))
    out = {}
    for v in g.nodes:
        closed = (v, *g.adj[v])
        out[v] = (len(g.adj[v]),
                  max(len(g.adj[u]) for u in closed),
                  sum(w[u] for u in closed))
    return out


def good_by_definition(w, delta, s):
    """The good-node test as stated, cross-multiplied in Python ints."""
    return w > 0 and 2 * (delta + 1) * w >= s


def _reference_good(g):
    return frozenset(v for (v, (_, delta, s)), wv in zip(_reference_stats(g).items(),
                                                        g.w.tolist())
                     if good_by_definition(wv, delta, s))


def test_stats_examples():
    isolated = WeightedGraph([0], [], {0: 5})
    assert _reference_stats(isolated)[0] == (0, 0, 5)
    assert good_nodes(isolated) == frozenset({0})

    star = WeightedGraph(range(4), [(0, 1), (0, 2), (0, 3)], {v: 1 for v in range(4)})
    stats = _reference_stats(star)
    assert stats[0] == (3, 3, 4)   # center
    assert stats[1] == (1, 3, 2)   # leaf
    # a leaf of weight 1 beside a center of weight 7: s = 8 = 2 * (3 + 1) * 1
    heavy_center = star.induced(star.mask(star.nodes), [7, 1, 1, 2])
    assert good_nodes(heavy_center) == frozenset({0, 1, 2, 3})
    heavier_center = star.induced(star.mask(star.nodes), [8, 1, 1, 2])
    assert good_nodes(heavier_center) == frozenset({0, 3})


def test_stats_equal_reference():
    corpus = [generate("gnp", {"n": n, "p": p}, wm, n)
              for n in (1, 7, 60) for p in (0.0, 0.2, 1.0)
              for wm in ("unit", "heavy_tail")]
    corpus.append(WeightedGraph([2, 5, 9, 40, 41], [(2, 40), (40, 41)],
                                {2: 3, 5: 7, 9: 0, 40: 1, 41: 6}))
    corpus.append(WeightedGraph(range(4), [(0, 1), (0, 2), (2, 3)],
                                {0: INT64_MAX, 1: INT64_MAX, 2: 1, 3: INT64_MAX}))
    for g in corpus:
        assert good_nodes(g) == _reference_good(g)


def test_stats_program_matches_sequential():
    for seed in range(15):
        rng = random.Random(seed)
        g = generate("gnp", {"n": rng.randint(3, 60), "p": rng.uniform(0.05, 0.5)},
                     ("unit", "uniform_range", "heavy_tail")[seed % 3],
                     derive_seed(0x5E, seed))
        # the per-node interpreter against the definition
        out, stats = run(g, LocalStatsProgram(), seed=seed, node_order=list)
        assert stats.rounds == 2
        good = _reference_good(g)
        assert out.tolist() == [v in good for v in g.nodes]


def _good_bit_boundaries():
    """(graph, the good ids) with weights near 2^62: the good bit at its
    boundary 2(delta+1)w = s, where 2(delta+1)w passes 2^63."""
    # a path a-b-c (delta 2 everywhere) whose closed sums fit int64, so the
    # kernel folds in int64, while 6 * w_b does not: a is good iff 5 w_a >= w_b
    w_b = INT64_MAX // 3
    yield WeightedGraph([0, 1, 2], [(0, 1), (1, 2)],
                        {0: -(-w_b // 5), 1: w_b, 2: -(-w_b // 5) - 1}), {0, 1}
    # a star whose centre's closed sum passes 2^64, so the sums are Python
    # ints: with 4 leaves the centre is good iff 9 w_c >= the leaves' sum
    leaves = {v: 2**62 + 7 * v for v in range(1, 5)}
    least = -(-sum(leaves.values()) // 9)
    for w_c, good in ((least, {0, 1, 2, 3, 4}), (least - 1, {1, 2, 3, 4})):
        yield WeightedGraph(range(5), [(0, v) for v in leaves], {0: w_c, **leaves}), good
    # zero weights: never good, beside heavy nodes, alone, or among zeros
    yield WeightedGraph(range(6), [(0, 1), (1, 2), (4, 5)],
                        {0: 0, 1: INT64_MAX, 2: 0, 3: 0, 4: 0, 5: 0}), {1}


@pytest.mark.parametrize("g,good", list(_good_bit_boundaries()))
def test_good_bit_is_exact_past_int64(g, good):
    kernel, _ = run(g, LocalStatsProgram(), mode="local")
    interpreted, _ = run(g, LocalStatsProgram(), mode="local", node_order=list)
    assert kernel.tolist() == interpreted.tolist() == [v in good for v in g.nodes]
    assert _reference_good(g) == good


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


def _triples(top):
    """Lists of (w, delta, s) with w and s in [0, top]: s drawn freely, or
    within 2 of the boundary 2(delta+1)w, or all three small."""
    deltas = st.integers(0, 2**20)
    free = st.tuples(st.integers(0, top), deltas, st.integers(0, top))
    edge = st.builds(lambda w, d, off: (w, d, min(max(2 * (d + 1) * w + off, 0), top)),
                     st.integers(0, top >> 22), deltas, st.integers(-2, 2))
    small = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 12))
    return st.lists(st.one_of(free, edge, small), min_size=1, max_size=12)


@given(_triples(INT64_MAX), _triples(2**80))
def test_is_good_is_the_cross_multiplied_test_in_every_form(narrow, wide):
    """``is_good`` on Python ints (s past 2^63 among them), on int64 arrays,
    on object arrays and on the kernel's mix (int64 w and delta, object s)
    agrees, element by element, with ``good_by_definition``."""
    for w, delta, s in narrow + wide:
        assert is_good(w, delta, s) is good_by_definition(w, delta, s)
    cols = [np.array(col, dtype=np.int64) for col in zip(*narrow)]
    wide_cols = [np.array(col, dtype=object) for col in zip(*wide)]
    for args, triples in ((cols, narrow), ([c.astype(object) for c in cols], narrow),
                          ([*cols[:2], cols[2].astype(object)], narrow),
                          (wide_cols, wide)):
        good = is_good(*args)
        assert good.dtype == bool
        assert good.tolist() == [good_by_definition(*t) for t in triples]


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
    _, mis_stats = run_on_subgraph(g, g.mask(good), LubyProgram(),
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


@pytest.mark.parametrize("joins,error", [("none", None), ("all", "not independent")])
def test_heavy_reports_a_bad_black_box_answer(monkeypatch, joins, error):
    # Luby's answer replaced: no good node joins (not maximal), or every good
    # node joins (dependent, which IndependentSet.of refuses)
    run_on_subgraph = heavy.run_on_subgraph

    def scripted(g, keep, program, **kwargs):
        out, stats = run_on_subgraph(g, keep, program, **kwargs)
        return np.full(len(out), joins == "all"), stats

    monkeypatch.setattr(heavy, "run_on_subgraph", scripted)
    g = generate("cycle", {"n": 6}, "unit", 0)
    if error:
        with pytest.raises(GraphError, match=error):
            heavy_mis_approx(g, seed=1)
    else:
        r = heavy_mis_approx(g, seed=1)
        assert r.iset.members == frozenset()
        assert r.diagnostics == {"good_nodes": 6, "mis_valid": False}


def test_all_zero_weights_vacuous():
    g = WeightedGraph([0, 1], [(0, 1)], {0: 0, 1: 0})
    r = heavy_mis_approx(g, seed=1)
    assert r.iset.members == frozenset() and r.iset.weight == 0
    assert 4 * (g.max_degree + 1) * 0 >= 0
