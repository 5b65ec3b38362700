import gc
import hashlib
import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwisim import graphs
from mwisim.graphs import (BUILD_CEILING_BYTES, GAP_CAP, HEAVY_TAIL_CAP, INT32_MAX, INT64_MAX,
                           UNIFORM_RANGE_MAX, BruteForceCapError, GraphError,
                           GraphParseError, IndependentSet, WeightedGraph,
                           _clique_cycle_edges, _clique_edges, _csr_of_keys, _draw_weights,
                           _edge_keys, _family_edges, _gnp_edges, _position_dtype,
                           _slot_pairs, brute_force_max_is, build_bytes, build_clique_cycle,
                           degeneracy,
                           generate, load, neighbor_reduce, random_tree, save)
from mwisim.heavy import heavy_mis_approx
from mwisim.mis import greedy_mis
from test_mis import family_corpus
from mwisim.rng import derive_seed


def unit(nodes, edges):
    return WeightedGraph(nodes, edges, {v: 1 for v in nodes})


# ---------------------------------------------------------------- structure

def test_adjacency_is_symmetric_and_sorted():
    g = WeightedGraph([3, 1, 2], [(3, 1), (2, 3)], {1: 5, 2: 6, 3: 7})
    assert g.nodes == (1, 2, 3)
    assert g.adj == {1: (3,), 2: (3,), 3: (1, 2)}
    assert g.m == 2 and g.max_degree == 2


@pytest.mark.parametrize("edges,msg", [
    ([(0, 0)], "self-loop"),
    ([(0, 9)], "unknown node"),
])
def test_bad_edges_rejected(edges, msg):
    with pytest.raises(GraphError, match=msg):
        unit([0, 1], edges)


def test_bad_weights_rejected():
    with pytest.raises(GraphError, match="negative weight"):
        WeightedGraph([0], [], {0: -1})
    with pytest.raises(GraphError, match="not an integer"):
        WeightedGraph([0], [], {0: 1.5})
    with pytest.raises(GraphError, match="64-bit"):
        WeightedGraph([0], [], {0: 2**63})
    with pytest.raises(GraphError, match="missing weight"):
        WeightedGraph([0, 1], [], {0: 1})


def test_duplicate_ids_rejected():
    with pytest.raises(GraphError, match="duplicate"):
        WeightedGraph([0, 0], [], {0: 1})


def test_node_ids_must_fit_int64():
    # ids past INT64_MAX would alias the 64-bit masked random streams
    for big in (2**63, 5 + 2**64):
        with pytest.raises(GraphError, match=f"identifier {big} exceeds 64-bit range"):
            WeightedGraph([5, big], [(5, big)], {5: 1, big: 1})
    g = WeightedGraph([0, INT64_MAX], [(0, INT64_MAX)], {0: 1, INT64_MAX: 2})
    assert g.adj == {0: (INT64_MAX,), INT64_MAX: (0,)}
    assert g.induced(g.mask([INT64_MAX])).nodes == (INT64_MAX,)
    assert not g.is_independent([0, INT64_MAX])
    for bad in (1.5, True):
        with pytest.raises(GraphError, match="is not an integer"):
            WeightedGraph([0, bad], [], {0: 1, bad: 1})


def test_repeated_edges_merge():
    g = unit([0, 1], [(0, 1), (1, 0), (0, 1)])
    one = unit([0, 1], [(0, 1)])
    assert g.m == 1 and g.max_degree == 1 and g == one
    for got, want in zip(g.csr(), one.csr()):
        assert got.tolist() == want.tolist()


def test_adjacency_tuples_are_derived_once_and_read_only():
    g = generate("gnp", {"n": 30, "p": 0.2}, "unit", 1)
    assert g._adj is None
    assert g.adj is g.adj
    assert g.edges() == [(u, v) for u in g.nodes for v in g.adj[u] if u < v]
    with pytest.raises(AttributeError):
        g.adj = {}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_adjacency_build_leaves_the_collector_as_it_found_it(enabled):
    g = generate("gnp", {"n": 30, "p": 0.2}, "unit", 1)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert g._adj is None and len(g.adj) == g.n
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_is_independent_equals_an_edge_scan():
    rng = random.Random(11)
    for _ in range(40):
        ids = rng.sample(range(10**6), rng.randint(1, 30))
        edges = [e for e in itertools.combinations(ids, 2) if rng.random() < 0.15]
        g = unit(ids, edges)
        for _ in range(10):
            mem = {v for v in ids if rng.random() < 0.3}
            assert g.is_independent(mem) == (not any(a in mem and b in mem
                                                     for a, b in edges))
    with pytest.raises(GraphError, match="^node 7 is not in the graph$"):
        unit([0, 1], []).is_independent([0, 7])


def test_induced_keeps_ids_and_reweights():
    g = unit(range(4), [(0, 1), (1, 2), (2, 3)])
    h = g.induced(g.mask([1, 2, 3]), weights=[0, 9, 8, 7])  # by position in g.nodes
    assert h.nodes == (1, 2, 3)
    assert h.adj[1] == (2,)
    assert h.w.tolist() == [9, 8, 7] and h.w.dtype == np.int64
    with pytest.raises(ValueError):
        h.w[0] = 1  # read-only, like the CSR


def _induced_reference(g, subset, weights):
    sub = set(subset)
    src = dict(zip(g.nodes, g.w.tolist() if weights is None else weights))
    return WeightedGraph(sub, [(u, v) for u, v in g.edges() if u in sub and v in sub],
                         {v: src[v] for v in sub})


INDUCED_GRAPHS = {
    "gnp-sparse": lambda: generate("gnp", {"n": 60, "p": 0.05}, "uniform_range", 3),
    "gnp-dense": lambda: generate("gnp", {"n": 40, "p": 0.6}, "heavy_tail", 4),
    "gnp-edgeless": lambda: generate("gnp", {"n": 12, "p": 0.0}, "unit", 5),
    "cycle-of-cliques": lambda: generate("cycle_of_cliques", {"n0": 5, "n1": 3},
                                         "uniform_range", 6),
    "isolated": lambda: WeightedGraph([0, 4, 9, 12, 30], [(4, 9), (9, 30)],
                                      {0: 1, 4: 2, 9: 3, 12: 4, 30: 5}),
    "empty": lambda: WeightedGraph([], [], {}),
}


@pytest.mark.parametrize("reweight", [False, True])
@pytest.mark.parametrize("kind", ["empty", "full", "half", "most"])
@pytest.mark.parametrize("name", INDUCED_GRAPHS)
def test_induced_equals_validated_construction(name, kind, reweight):
    g = INDUCED_GRAPHS[name]()
    rng = random.Random(f"{name}/{kind}")
    keep = {"empty": 0.0, "full": 1.0, "half": 0.5, "most": 0.8}[kind]
    mask = np.array([rng.random() < keep for _ in g.nodes], dtype=bool)
    subset = [v for v, k in zip(g.nodes, mask) if k]
    # replacement weights cover every node of g, by position
    weights = ([rng.choice([0, 1, rng.randrange(INT64_MAX), INT64_MAX])
                for _ in g.nodes] if reweight else None)
    h = g.induced(mask, weights)
    assert np.array_equal(g.mask(reversed(subset)), mask)  # ids in any order
    ref = _induced_reference(g, subset, weights)
    assert h == ref
    assert h.w.tolist() == ref.w.tolist()
    assert h.max_degree == ref.max_degree and h.m == ref.m
    for got, want in zip(h.csr(), ref.csr()):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    assert g == INDUCED_GRAPHS[name]()  # the parent is untouched


def test_induced_rejects_unknown_nodes():
    g = generate("path", {"n": 4}, "unit", 0)
    with pytest.raises(GraphError, match=r"^node -1 is not in the graph$"):
        g.mask([0, 7, -1])
    # a selection is a boolean mask by position, nothing else
    for bad in ([0, 1, 2, 3], [True] * 3, [True] * 5, np.ones(4, dtype=np.int64),
                np.array([1, 0, 1, 0], dtype=object), np.array([[True] * 4], dtype=object)):
        with pytest.raises(GraphError, match="^expected a boolean mask of 4 nodes"):
            g.induced(bad)
    # or its values as objects, as the engine's interpreter returns them
    assert g.induced(np.array([True, False, True, False], dtype=object)) == g.induced(
        np.array([True, False, True, False]))
    empty = WeightedGraph([], [], {})
    assert empty.induced([]) is empty  # numpy reads [] as floats
    with pytest.raises(GraphError, match="^expected a boolean mask of 0 nodes"):
        empty.induced([0])


@pytest.mark.parametrize("bad", [-1, 1.5, True, 2**63, None, np.int64(3)])
def test_induced_rejects_bad_weights_like_the_constructor(bad):
    g = generate("path", {"n": 4}, "unit", 0)
    weights = [5, 6, bad, 7]
    with pytest.raises(GraphError) as want:
        WeightedGraph([1, 2, 3], [], dict(zip(g.nodes, weights)))
    with pytest.raises(GraphError) as got:
        g.induced(g.mask([1, 2, 3]), weights)
    assert str(got.value) == str(want.value)
    assert g.induced(g.mask([0, 1]), weights).w.tolist() == [5, 6]  # node 2 left out
    # only the kept nodes' weights are read, whatever the others hold
    assert g.induced(g.mask([0, 3]), [5, -2**70, object(), 7]).w.tolist() == [5, 7]


@given(st.lists(st.tuples(st.one_of(st.integers(-2**63, INT64_MAX), st.integers(-3, 3)),
                          st.booleans()), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
@example([(5, True), (-1, False), (7, True), (-9, True), (-2, True)])
def test_int64_weights_are_refused_as_lists_are(pairs):
    """An int64 array takes one sign test, a list or object array the
    per-value check; both keep the same graph or refuse the first bad kept
    node by position with the same text."""
    ws, keep = [w for w, _ in pairs], np.array([k for _, k in pairs], dtype=bool)
    g = generate("gnp", {"n": len(ws), "p": 0.3}, "unit", 1)
    results = []
    for weights in (ws, np.array(ws, dtype=object), np.array(ws, dtype=np.int64)):
        try:
            results.append(g.induced(keep, weights))
        except GraphError as e:
            results.append(str(e))
    assert results[0] == results[1] == results[2]
    bad = [(v, w) for v, (w, k) in zip(g.nodes, pairs) if k and w < 0]
    if bad:
        assert results[2] == "negative weight {1} at node {0}".format(*bad[0])
    else:
        # the kept weights are a read-only copy; the caller's array is untouched
        arr = np.array(ws, dtype=np.int64)
        h = g.induced(keep, arr)
        arr[:] = 0
        assert h.w.tolist() == [w for w, k in pairs if k]
        assert not h.w.flags.writeable and arr.flags.writeable


@pytest.mark.parametrize("count", [0, 3, 5])
def test_induced_wants_one_weight_per_parent_node(count):
    g = generate("path", {"n": 4}, "unit", 0)
    with pytest.raises(GraphError, match=f"^expected 4 weights by position, got {count}$"):
        g.induced(g.mask([1, 2]), [1] * count)


# --------------------------------------------------------------- generators

def test_cycle_triangle():
    g = generate("cycle", {"n": 3}, "unit", 0)
    assert g.n == 3 and g.m == 3 and set(g.w.tolist()) == {1}


def test_clique_k4():
    assert generate("clique", {"n": 4}, "unit", 0).m == 6


def test_gnp_p_zero():
    g = generate("gnp", {"n": 100, "p": 0}, "unit", 7)
    assert g.n == 100 and g.m == 0


def test_gnp_p_one_is_complete():
    g = generate("gnp", {"n": 9, "p": 1.0}, "unit", 3)
    assert g.m == 36


@pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-19])
def test_gnp_tiny_p_has_no_edges(p):
    # geometric gaps near 2**63 used to overflow the running slot index
    assert generate("gnp", {"n": 40, "p": p}, "unit", 1).m == 0


def test_gnp_deterministic_and_plausible():
    a = generate("gnp", {"n": 100, "p": 0.1}, "uniform_range", 2)
    b = generate("gnp", {"n": 100, "p": 0.1}, "uniform_range", 2)
    assert a == b
    assert 350 <= a.m <= 650  # mean 495
    c = generate("gnp", {"n": 100, "p": 0.1}, "uniform_range", 3)
    assert a != c


def _gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("p", [0.001, 0.04, 0.3, 0.6])
def test_geometric_draws_split_across_calls_are_one_stream(p):
    # why _gnp_edges may size its blocks freely: the edges never depend on it
    def gen():
        return _gen(derive_seed(5, 0x6E90))

    a, b = gen(), gen()
    split = np.concatenate((a.geometric(p, size=337), a.geometric(p, size=663)))
    assert np.array_equal(split, b.geometric(p, size=1000))
    # and why _gnp_gaps may convert its exponentials piece by piece into one buffer
    a, b = gen(), gen()
    split = np.empty(1000)
    a.standard_exponential(out=split[:337])
    a.standard_exponential(out=split[337:])
    assert np.array_equal(split, b.standard_exponential(size=1000))


def _inversion(gen, p, size):
    # numpy's geometric below 1/3, one scalar at a time in Python floats
    z = [gen.standard_exponential() / -math.log1p(-p) for _ in range(size)]
    return np.array([GAP_CAP if x >= GAP_CAP else math.ceil(x) for x in z], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(p=st.floats(0.0, 1 / 3, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**64 - 1), size=st.integers(0, 3000),
       piece=st.integers(1, 4000))
@example(p=math.nextafter(1 / 3, 0), seed=1, size=3000, piece=512)
@example(p=5e-324, seed=2, size=700, piece=64)
@example(p=1e-300, seed=3, size=70, piece=1)
# gaps near 2^55, where a quotient one ulp off is another gap: E * (1 / scale)
# in place of the division differs from numpy in about one draw in eight
@example(p=3e-17, seed=4, size=3000, piece=700)
def test_bulk_gaps_equal_numpys_geometric_below_a_third(p, seed, size, piece):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "GAP_PIECE", piece)
        gaps = graphs._gnp_gaps(_gen(seed), p, size)
    assert gaps.dtype == np.int64 and gaps.shape == (size,)
    # numpy reads a draw past 2^63 as INT64_MAX; every gap past GAP_CAP ends the scan
    assert np.array_equal(gaps, np.minimum(_gen(seed).geometric(p, size), GAP_CAP))
    if size <= 100:
        assert np.array_equal(gaps, _inversion(_gen(seed), p, size))


def test_gaps_at_a_third_are_numpys_search():
    # from 1/3 up numpy's geometric searches, and inversion would draw other gaps
    for p in (1 / 3, 0.5):
        gaps = graphs._gnp_gaps(_gen(9), p, 1000)
        assert np.array_equal(gaps, _gen(9).geometric(p, 1000))
        assert not np.array_equal(gaps, _inversion(_gen(9), p, 1000))
    below = math.nextafter(1 / 3, 0)
    assert np.array_equal(graphs._gnp_gaps(_gen(9), below, 1000), _inversion(_gen(9), below, 1000))


def test_gnp_edges_valid():
    g = generate("gnp", {"n": 257, "p": 0.13}, "unit", 11)
    for u in g.nodes:
        assert u not in g.adj[u]
        for v in g.adj[u]:
            assert u in g.adj[v]


@pytest.mark.parametrize("n", [2, 3, 17])
def test_slot_pairs_match_the_enumerated_table(n):
    table = list(itertools.combinations(range(n), 2))
    u, v = _slot_pairs(n, np.arange(len(table), dtype=np.int64))
    assert list(zip(u.tolist(), v.tolist())) == table


@pytest.mark.parametrize("n", [2, 3, 4096, 65537, 10**6])
def test_slot_pairs_at_row_boundaries(n):
    total = n * (n - 1) // 2
    u, v = _slot_pairs(n, np.array([0, total - 1], dtype=np.int64))
    assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (n - 2, n - 1)]
    # the first and last slot of every row
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    u, v = _slot_pairs(n, starts)
    assert np.array_equal(u, rows) and np.array_equal(v, rows + 1)
    u, v = _slot_pairs(n, starts[1:] - 1)
    assert np.array_equal(u, rows[:-1]) and (v == n - 1).all()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_slot_pairs_of_ascending_subsets_match_the_table(data):
    n = data.draw(st.integers(2, 40), label="n")
    table = list(itertools.combinations(range(n), 2))
    slots = sorted(data.draw(st.sets(st.integers(0, len(table) - 1)), label="slots"))
    u, v = _slot_pairs(n, np.array(slots, dtype=np.int64))
    assert u.dtype == v.dtype == _position_dtype(n) == np.int32
    assert list(zip(u.tolist(), v.tolist())) == [table[k] for k in slots]


@pytest.mark.parametrize("family,count", [("cycle", 17), ("path", 16), ("star", 16)])
def test_closed_form_edge_counts(family, count):
    assert generate(family, {"n": 17}, "unit", 0).m == count


def test_invalid_family_and_params():
    with pytest.raises(GraphError, match="unknown family"):
        generate("torus", {"n": 5}, "unit", 0)
    with pytest.raises(GraphError, match="n >= 3"):
        generate("cycle", {"n": 2}, "unit", 0)
    with pytest.raises(GraphError, match="0 <= p <= 1"):
        generate("gnp", {"n": 5, "p": 1.5}, "unit", 0)
    with pytest.raises(GraphError, match="unknown weight model"):
        generate("path", {"n": 5}, "gaussian", 0)


def test_weight_models():
    u = generate("path", {"n": 50}, "uniform_range", 5)
    assert all(1 <= w <= 10**6 for w in u.w.tolist())
    h = generate("path", {"n": 50}, "heavy_tail", 5)
    assert all(1 <= w <= 10**9 for w in h.w.tolist())
    assert max(h.w.tolist()) > 100  # a heavy node exists at n=50

def _reference_heavy_tail(rng, n):
    """The scalar loop behind the ``heavy_tail`` weights: the reference."""
    out = []
    for _ in range(n):
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        out.append(min(int(1.0 / (u * u)), HEAVY_TAIL_CAP))
    return out


def _stream_with_zeros(zeros):
    """A ``random.Random`` whose ``random()`` returns 0.0 in place of its
    draw at the given call indices; it records the seeds it is built with."""
    class Zeroing(random.Random):
        seeds = []

        def __init__(self, seed):
            self.seeds.append(seed)
            self.calls = 0
            super().__init__(seed)

        def random(self):
            u = super().random()
            self.calls += 1
            return 0.0 if self.calls - 1 in zeros else u

    return Zeroing


def test_heavy_tail_weights_equal_the_scalar_loop(monkeypatch):
    stream = _stream_with_zeros(())
    monkeypatch.setattr(graphs, "random", SimpleNamespace(Random=stream))
    for seed in range(13):
        for n in (0, 1, 50, 4096):
            got = _draw_weights(n, "heavy_tail", seed).tolist()
            assert got == _reference_heavy_tail(stream(stream.seeds[-1]), n)


@pytest.mark.parametrize("zeros", [(0,), (3,), (9,), (3, 4), (2, 10)])
def test_heavy_tail_redraws_a_zero_at_its_place(monkeypatch, zeros):
    # (2, 10) zeroes the draw that replaces the first zero too
    plain = _draw_weights(10, "heavy_tail", 5).tolist()
    stream = _stream_with_zeros(zeros)
    monkeypatch.setattr(graphs, "random", SimpleNamespace(Random=stream))
    got = _draw_weights(10, "heavy_tail", 5).tolist()
    assert got == _reference_heavy_tail(stream(stream.seeds[-1]), 10)
    assert got != plain


def _reference_uniform_range(rng, n):
    """The scalar loop behind the ``uniform_range`` weights: the reference."""
    return [rng.randint(1, UNIFORM_RANGE_MAX) for _ in range(n)]


def _stream_with_rejections(rejects):
    """A ``random.Random`` whose ``getrandbits`` returns 2^bits - 1 (at or
    above 10^6 for 20 bits, so rejected) in place of its draw at the given
    call indices; it records each stream it builds."""
    class Rejecting(random.Random):
        built = []

        def __init__(self, seed):
            self.built.append(self)
            self.seed_ = seed
            self.calls = 0
            super().__init__(seed)

        def getrandbits(self, k):
            r = super().getrandbits(k)
            self.calls += 1
            return (1 << k) - 1 if self.calls - 1 in rejects else r

    return Rejecting


def test_uniform_range_weights_equal_the_randint_loop(monkeypatch):
    stream = _stream_with_rejections(())
    monkeypatch.setattr(graphs, "random", SimpleNamespace(Random=stream))
    for seed in range(13):
        for n in (0, 1, 50, 4096):
            got = _draw_weights(n, "uniform_range", seed)
            drawn = stream.built[-1]
            ref = stream(drawn.seed_)
            assert got.dtype == np.int64
            assert got.tolist() == _reference_uniform_range(ref, n)
            assert drawn.calls == ref.calls  # no draw past the n-th kept one
    # the plain stream too, with CPython's own randint
    rng = random.Random(derive_seed(7, 0x57E16875))
    assert (_draw_weights(4096, "uniform_range", 7).tolist()
            == [rng.randint(1, 10**6) for _ in range(4096)])


@pytest.mark.parametrize("rejects", [(1,), (3,), (49,), (3, 4), (49, 50)])
def test_uniform_range_redraws_a_rejection_at_its_place(monkeypatch, rejects):
    # seed 5's own stream rejects calls 0 and 35, so 50 weights take 52
    # draws; (49, 50) rejects the first batch's last draw and its replacement
    plain = _draw_weights(50, "uniform_range", 5).tolist()
    stream = _stream_with_rejections(rejects)
    monkeypatch.setattr(graphs, "random", SimpleNamespace(Random=stream))
    got = _draw_weights(50, "uniform_range", 5).tolist()
    drawn = stream.built[-1]
    ref = stream(drawn.seed_)
    assert got == _reference_uniform_range(ref, 50)
    assert drawn.calls == ref.calls
    assert got != plain


def _reference_edges(family, n, p, seed):
    """Each family's edge list as plain Python pairs."""
    if family == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "clique":
        return list(itertools.combinations(range(n), 2))
    if family == "star":
        return [(0, i) for i in range(1, n)]
    u, v = _gnp_edges(n, p, seed)
    return list(zip(u.tolist(), v.tolist()))


ARRAY_BUILT_CASES = [(f, n, None) for f in ("cycle", "path", "clique", "star")
                     for n in (1, 2, 3, 50) if f != "cycle" or n >= 3]
ARRAY_BUILT_CASES += [("gnp", n, p) for n in (1, 2, 3, 50) for p in (0.0, 0.3, 1.0)]


@pytest.mark.parametrize("family,n,p", ARRAY_BUILT_CASES)
def test_array_built_graph_equals_validated_construction(family, n, p):
    params = {"n": n} if p is None else {"n": n, "p": p}
    g = generate(family, params, "uniform_range", 9)
    ref = WeightedGraph(range(n), _reference_edges(family, n, p, 9),
                        dict(zip(g.nodes, g.w.tolist())))
    assert g == ref
    for built, lazy in zip(g.csr(), ref.csr()):
        assert built.dtype == lazy.dtype == np.int64
        assert np.array_equal(built, lazy)
    # one int object per node id, shared by every adjacency tuple
    assert all(u is g.nodes[u] for nbrs in g.adj.values() for u in nbrs)


def test_csr_of_non_contiguous_ids_and_isolated_nodes():
    g = WeightedGraph([42, 3, 10, 7], [(3, 7), (42, 7)], {3: 1, 7: 2, 10: 3, 42: 4})
    indptr, nbr = g.csr()
    assert indptr.tolist() == [0, 1, 3, 3, 4]
    assert nbr.tolist() == [1, 0, 3, 1]
    assert g.csr() is g.csr()
    with pytest.raises(ValueError):
        nbr[0] = 2  # shared by every caller, so read-only
    empty = WeightedGraph([], [], {})
    assert [a.tolist() for a in empty.csr()] == [[0], []]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csr_of_edges_matches_sorted_neighbour_sets(data):
    n = data.draw(st.integers(0, 60), label="n")
    pairs = []
    if n >= 2:
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                                   max_size=150), label="pairs")
        # repeats, some turned round and some not
        k = data.draw(st.integers(0, len(pairs)), label="repeated")
        pairs += [(b, a) for a, b in pairs[:k:2]] + pairs[1:k:2]
    _assert_csr_of_pairs(n, pairs)


def _assert_csr_of_pairs(n, pairs):
    """``_edge_keys`` then ``_csr_of_keys`` on ``pairs`` against sorted sets
    of neighbours."""
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    nbrs = [set() for _ in range(n)]
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    indptr, nbr = _csr_of_keys(n, _edge_keys(n, u, v))
    assert indptr.dtype == nbr.dtype == np.int64
    assert indptr.tolist() == list(itertools.accumulate(map(len, nbrs), initial=0))
    assert nbr.tolist() == [j for s in nbrs for j in sorted(s)]


@pytest.mark.parametrize("n", [2**15, 2**15 + 1])
def test_csr_of_edges_at_both_key_widths(n):
    # n << b fits int32 at n = 2^15 (b = 15) and not at 2^15 + 1 (b = 16),
    # so the keys are sorted as int32 and int64 respectively
    rng = random.Random(n)
    ends = [0, 1, n - 2, n - 1]  # the top positions set every bit of b
    pairs = [(a, b) for a in ends for b in ends if a != b]
    while len(pairs) < 4000:
        a, b = rng.randrange(n), rng.choice([rng.randrange(n), rng.choice(ends)])
        if a != b:
            pairs.append((a, b))
    # repeats, some turned round and some not
    pairs += [(b, a) for a, b in pairs[:500]] + pairs[500:900]
    rng.shuffle(pairs)
    _assert_csr_of_pairs(n, pairs)


def _csr_builders():
    yield "constructor", WeightedGraph([9, 2, 5], [(2, 9), (5, 2)], {2: 1, 5: 2, 9: 3})
    yield "constructor, no edges", WeightedGraph([4], [], {4: 1})
    g = generate("gnp", {"n": 40, "p": 0.2}, "heavy_tail", 3)
    yield "generate", g
    yield "generate, cycle", generate("cycle", {"n": 7}, "unit", 0)
    yield "induced", g.induced(np.arange(40) % 3 > 0)
    yield "induced, reweighted", g.induced(np.ones(40, bool), list(range(40)))
    yield "build_clique_cycle", build_clique_cycle(5, 3).graph
    yield "load", load(save(g))


@pytest.mark.parametrize("name,g", list(_csr_builders()),
                         ids=[name for name, _ in _csr_builders()])
def test_every_builder_stores_the_csr_as_read_only_contiguous_int64(name, g):
    # the sha256 pins cast to <i8 first, so they would not see a narrower dtype
    for a in g.csr():
        assert a.dtype == np.int64
        assert a.flags.c_contiguous and not a.flags.writeable


def _sha256(a):
    return hashlib.sha256(np.asarray(a, dtype="<i8").tobytes()).hexdigest()


# sha256 of indptr, nbr and the weights by position (little-endian int64) of
# the seed-0 graphs of acceptance criteria C5 and C7 and of a 2^16-node
# graph, recorded before the array passes of the gnp build were reworked.
# Only a change meant to alter generated graphs updates them, together with
# GRAPH_SHA256 in test_golden.py.
LARGE_GNP_DIGESTS = [
    ({"n": 4096, "p": 0.04}, "heavy_tail", derive_seed(0xAC05, 0), (
        "0d3d146b25d5a0224398b9e4f60205e3181dccfddba7f5aba51ec5a06fe1c2e1",
        "8b885e09896378fd2494dcdf21cb0ebdb974cac21a20afffea6a4b8b2f1aff64",
        "7915df5fa583bd7c5d8ac858c14346dde7088cdcab71a035ff1eb16b693002e7")),
    ({"n": 4096, "p": 0.01}, "unit", derive_seed(0xAC07, 0), (
        "342f9a2a92f85679f63ff3f2d4bbb55184dd327addb4c50fec8af8d37656e47c",
        "923680a1084f740176a4a299f30e7ede7af57312f3067869e2ddb534a379bbe9",
        "7f359c344d1520daab697c52d31afa5610321993c6619d49fa8f98600921483f")),
    ({"n": 2**16, "p": 20 / 2**16}, "heavy_tail", 1, (
        "8d9e8edd08f82c1e0d6611bdbe907c28db8e11d08c8188c766ff9cd491c4fdcb",
        "50e79451dcdc953f1d9ae621290fe86fdfd12974ee1064a387139b4e9998b0ca",
        "167fd5b68c359d324b352aef5a7806e4e7899f11429dd0a089d2295bbb9a4d9f")),
]


@pytest.mark.parametrize("params,model,seed,digests", LARGE_GNP_DIGESTS,
                         ids=["C5", "C7", "n65536"])
def test_large_gnp_graphs_are_pinned(params, model, seed, digests):
    g = generate("gnp", params, model, seed)
    assert tuple(map(_sha256, (*g.csr(), g.w.tolist()))) == digests
    if params["n"] == 4096:
        # ids past the small-int cache: the tuples still share one object per node
        assert all(u is g.nodes[u] for nbrs in g.adj.values() for u in nbrs)


# The same digests of the gap paths the graphs above do not take, recorded
# before the gaps below 1/3 were drawn in bulk: G(1024, 1/3) takes numpy's
# geometric search, and G(2^15, 12/n) is scanned in 41 blocks of 1 + left/4
# gaps, the first few spanning several pieces of GAP_PIECE.
GAP_PATH_DIGESTS = [
    ({"n": 1024, "p": 1 / 3}, "heavy_tail", 5, None, (
        "ae22d876bf69a6e9ce33b66e01d7fd51a35114af7c7949cb8b2b93192d0c356b",
        "dfcc47ce7c8f268d8de75d1c412179fa9e0e7efb9c169f7d7c821f3210fa867b",
        "d37bd123d81226b452a5a9513a1cd4f91fbc221f97dda53daebcc8c97b8b277b")),
    ({"n": 2**15, "p": 12 / 2**15}, "uniform_range", 4, 41, (
        "ecd2041d883f8db2c3d33b3ae9305f4ce9184c03031cec9d0a714d5c7de7ee93",
        "96a84c3c22f137d220d6787d945af5af4d83980b6de2dbdcf1981792a2a9f659",
        "de4a22abe0214c7b24612fb9c9b80b73a52ae9dbbdf79b62504f6a5658bc49b2")),
]


@pytest.mark.parametrize("params,model,seed,blocks,digests", GAP_PATH_DIGESTS,
                         ids=["search", "blocks"])
def test_both_gap_paths_are_pinned(params, model, seed, blocks, digests, monkeypatch):
    sizes = []

    def short(left, p):
        sizes.append(1 + int(left / 4))
        return sizes[-1]

    if blocks:
        monkeypatch.setattr(graphs, "_gnp_block", short)
    g = generate("gnp", params, model, seed)
    assert len(sizes) == (blocks or 0)
    assert tuple(map(_sha256, (*g.csr(), g.w.tolist()))) == digests


# sha256 of the ids, indptr, nbr and the weights by position of a
# 1024-node cycle of cliques under each weight model, recorded while its
# weights still went to ``induced`` as a list. The drawn int64 array takes
# ``_checked_weights``' array path and gives the same graph.
CYCLE_OF_CLIQUES_DIGESTS = {
    "unit": "bbddeafcfd3170bd6f6ce9e912a0dae026d243f2364b3d76791e06e0881c397c",
    "uniform_range": "72db3f3e8b0310d92e6b814c09b6ea05810025676ed34d18a0297789a0473d49",
    "heavy_tail": "2c4f75b7379827dbf4d0df1e786cf969040f59d1c6f51e110ad9c16387905f6f",
}


@pytest.mark.parametrize("model", graphs.WEIGHT_MODELS)
def test_cycle_of_cliques_weights_are_pinned(model, monkeypatch):
    checked = []

    def spy(nodes, values, kept=None):
        checked.append(type(values))
        return check(nodes, values, kept)

    check = graphs._checked_weights
    monkeypatch.setattr(graphs, "_checked_weights", spy)
    g = generate("cycle_of_cliques", {"n0": 64, "n1": 16}, model, 9)
    assert g.n == 1024 and tuple(map(_sha256, (g._ids, *g.csr(), g.w.tolist()))) == (
        "5ad50d4c01f16c9d3ac8925aca287088153a1089743ba2c4fe443b03b123162c",
        "f2c467e09f29e253bd0c3efa913cfdc60288f223c1cd195998ce6751069e4323",
        "62080e8d7c6dad7b7e80338859d2fb6583664449b750520bd0864bff3d5442d4",
        CYCLE_OF_CLIQUES_DIGESTS[model])
    assert checked == ([] if model == "unit" else [np.ndarray])


def _kept_bytes(g):
    return sum(a.nbytes for a in (*g.csr(), g.w, g.degrees, g._ids))


@pytest.mark.parametrize("params", [{"n": 4096, "p": 0.04}, {"n": 2**16, "p": 20 / 2**16}],
                         ids=["4096", "65536"])
def test_generating_gnp_peaks_at_most_1_6_times_what_the_graph_keeps(params):
    # the endpoints are narrow and the keys are built in place, so the build's
    # peak is about 24 bytes per edge against the 16 that ``nbr`` keeps; with
    # int64 endpoints and the keys concatenated it was 2.6 and 2.8 times
    generate("gnp", {"n": 8, "p": 0.5}, "heavy_tail", 0)  # first-use imports
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = generate("gnp", params, "heavy_tail", 1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * _kept_bytes(g)


@pytest.mark.parametrize("n,p", [(4096, 0.04), (2**16, 20 / 2**16), (300, 0.5), (1000, 0.003)])
def test_gnp_edges_drawn_in_many_blocks_equal_the_one_block_scan(n, p, monkeypatch):
    sizes = []

    def counted(size):
        def block(left, p):
            sizes.append(size(left, p))
            return sizes[-1]
        return block

    monkeypatch.setattr(graphs, "_gnp_block", counted(graphs._gnp_block))
    one = _gnp_edges(n, p, 3)
    assert len(sizes) == 1  # the scan ended in its first block, which is used as it is
    sizes.clear()
    monkeypatch.setattr(graphs, "_gnp_block", counted(lambda left, p: 1 + int(left / 4)))
    many = _gnp_edges(n, p, 3)
    assert len(sizes) > 3
    for a, b in zip(one, many):
        assert a.dtype == b.dtype == np.int32
        assert np.array_equal(a, b)


def test_endpoints_are_built_as_the_narrowest_position_dtype():
    assert _position_dtype(INT32_MAX) is np.int32
    assert _position_dtype(INT32_MAX + 1) is np.int64
    first = np.array([0, 6, 3], dtype=np.int32)
    for u, v in (_gnp_edges(300, 0.1, 1), _gnp_edges(300, 1.0, 1), _gnp_edges(300, 0.0, 1),
                 _gnp_edges(1, 0.5, 1), _clique_edges(7), _clique_cycle_edges(first, 3),
                 _family_edges("cycle", 9, None, 0), _family_edges("star", 9, None, 0)):
        assert u.dtype == v.dtype == np.int32
    # an int64 ``first`` (n0 * n1 past int32) widens the cycle of cliques' endpoints
    u, v = _clique_cycle_edges(first.astype(np.int64), 3)
    assert u.dtype == v.dtype == np.int64


def test_edge_keys_and_slot_pairs_only_read_their_inputs():
    u, v = np.array([0, 2, 1], dtype=np.int32), np.array([1, 0, 2], dtype=np.int64)
    keys = _edge_keys(3, u, v)
    assert u.tolist() == [0, 2, 1] and v.tolist() == [1, 0, 2]
    assert sorted(keys.tolist()) == [1, 2, 4, 6, 8, 9]  # i << 2 | j
    k = np.array([0, 2, 3], dtype=np.int64)
    _slot_pairs(4, k)
    assert k.tolist() == [0, 2, 3]


PAST_THE_CEILING = [
    ("gnp", {"n": 10**9, "p": 0.5}),
    ("gnp", {"n": 10**200, "p": 1e-300}),
    ("clique", {"n": 10**5}),
    ("cycle", {"n": 10**8}),
    ("star", {"n": 10**8}),
    ("cycle_of_cliques", {"n0": 10**8, "n1": 10**5}),
    ("cycle_of_cliques", {"n0": 3, "n1": 10**5}),
]


@pytest.mark.parametrize("family,params", PAST_THE_CEILING)
def test_builds_past_the_ceiling_are_refused_before_they_allocate(family, params):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="past the ceiling of 4 GiB"):
            generate(family, params, "heavy_tail", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_the_build_ceiling_admits_gnp_at_2_to_the_22():
    n = 2**22
    assert build_bytes(n, math.ceil(20 / n * (n * (n - 1) // 2))) <= BUILD_CEILING_BYTES


def test_neighbor_reduce_examples():
    g = WeightedGraph([42, 3, 10, 7], [(3, 7), (42, 7)], {3: 1, 7: 2, 10: 3, 42: 4})
    vals = [1, 2, 3, 4]  # by position: nodes 3, 7, 10, 42
    assert neighbor_reduce(g, np.add, vals).tolist() == [2, 5, 0, 2]
    assert neighbor_reduce(g, np.add, vals, vals).tolist() == [3, 7, 3, 6]
    assert neighbor_reduce(g, np.maximum, vals, vals).tolist() == [2, 4, 3, 4]
    assert neighbor_reduce(g, np.add, np.array(vals)).dtype == np.int64
    assert neighbor_reduce(WeightedGraph([], [], {}), np.add, []).tolist() == []


def test_neighbor_reduce_is_exact_beyond_int64():
    star = WeightedGraph(range(3), [(0, 1), (0, 2)], {v: 1 for v in range(3)})
    big = [INT64_MAX, INT64_MAX, INT64_MAX - 1]
    for vals in (big, np.array(big)):
        out = neighbor_reduce(star, np.add, vals, vals)
        assert out.dtype == object
        assert out.tolist() == [3 * INT64_MAX - 1, 2 * INT64_MAX, 2 * INT64_MAX - 1]
        assert all(type(x) is int for x in out)
    # delta * top fits in int64, the closed sum at the center does not
    half = INT64_MAX // 2
    assert neighbor_reduce(star, np.add, [half] * 3, [half] * 3)[0] == 3 * half
    # the largest values that still take the int64 path: (delta + 1) * top fits
    top = INT64_MAX // 3
    out = neighbor_reduce(star, np.add, [top] * 3, [top] * 3)
    assert out.dtype == np.int64
    assert out.tolist() == [3 * top, 2 * top, 2 * top]


def fold_by_rows(g, ufunc, values, initial=None):
    """``neighbor_reduce`` as a Python loop over each row of the CSR."""
    op = {np.add: lambda a, b: a + b, np.maximum: max}[ufunc]
    indptr, nbr = g.csr()
    out = []
    for i in range(g.n):
        acc = 0 if initial is None else int(initial[i])
        for j in nbr[indptr[i]:indptr[i + 1]].tolist():
            acc = op(acc, int(values[j]))
        out.append(acc)
    return out


def assert_folds_by_rows(g, values, initial):
    for ufunc in (np.add, np.maximum):
        for init in (None, initial):
            got = neighbor_reduce(g, ufunc, values, init)
            assert got.tolist() == fold_by_rows(g, ufunc, values, init)


ISOLATED_AT = {"first": [(1, 2), (2, 3), (3, 4)], "middle": [(0, 1), (3, 4)],
               "last": [(0, 1), (1, 2), (2, 3)], "none": [(0, 1), (1, 2), (3, 4)],
               "all": []}


@pytest.mark.parametrize("where", ISOLATED_AT)
def test_neighbor_reduce_equals_a_fold_by_rows(where):
    g = WeightedGraph(range(5), ISOLATED_AT[where], {v: 1 for v in range(5)})
    values = np.array([5, -3, INT64_MAX, 0, 2**62], dtype=np.int64)
    for vals in (values, values.tolist(), values.astype(object)):
        assert_folds_by_rows(g, vals, values[::-1].copy())
    assert_folds_by_rows(g, [INT64_MAX] * 5, [INT64_MAX] * 5)  # sums past int64
    rows, starts = g._row_starts()
    assert rows.tolist() == g.degrees.nonzero()[0].tolist()
    assert starts.tolist() == g.csr()[0][rows].tolist()


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 30), st.floats(0.0, 0.4), st.integers(0, 2**32), st.booleans(),
       st.data())
def test_neighbor_reduce_one_pass_when_every_row_has_entries(n, p, seed, isolated, data):
    """A cycle with chords has no isolated node; chords alone, away from
    node 0, leave isolated nodes, which ``reduceat`` must skip. Both equal
    the fold by rows, ``np.maximum`` without ``initial`` included: its floor
    is 0, so negative neighbors count as 0."""
    rng = random.Random(seed)
    edges = {(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < p}
    if not isolated:
        edges |= {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    g = WeightedGraph(range(n), edges, {v: 1 for v in range(n)})
    assert (g._row_starts()[0].size == n) is not isolated
    ints = st.integers(-(2**40), 2**40)
    values = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
    initial = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
    assert_folds_by_rows(g, values, initial)
    negative = -1 - np.arange(n, dtype=np.int64)
    assert_folds_by_rows(g, negative, initial)
    assert neighbor_reduce(g, np.maximum, negative).tolist() == [0] * n


@pytest.mark.parametrize("n", [0, 1])
def test_neighbor_reduce_without_edges(n):
    g = WeightedGraph(range(n), [], {v: 7 for v in range(n)})
    assert_folds_by_rows(g, np.arange(n, dtype=np.int64), np.full(n, 3, dtype=np.int64))
    assert neighbor_reduce(g, np.maximum, g.w).dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 0.6), st.integers(0, 2**32), st.data())
def test_induced_children_derive_their_own_row_starts(n, p, seed, data):
    g = generate("gnp", {"n": n, "p": p}, "uniform_range", seed)
    values = np.array(data.draw(st.lists(st.integers(0, 10**12), min_size=n,
                                         max_size=n)), dtype=np.int64)
    assert_folds_by_rows(g, values, values)  # fills the parent's cache
    parent_rows = g._row_starts()
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    child = g.induced(np.array(keep, dtype=bool))
    if child is not g:
        assert child._rows is None
    assert_folds_by_rows(child, values[np.array(keep)], values[np.array(keep)])
    if child is not g:
        assert child._row_starts() is not parent_rows
    assert g._row_starts() is parent_rows


# --------------------------------------------------------------- degeneracy

def test_degeneracy_examples():
    assert degeneracy(generate("clique", {"n": 4}, "unit", 0)) == 3
    assert degeneracy(unit(range(5), [])) == 0
    assert degeneracy(generate("cycle", {"n": 9}, "unit", 0)) == 2


@pytest.mark.parametrize("seed", range(8))
def test_tree_degeneracy_is_one(seed):
    n = random.Random(seed).randint(2, 1000)
    assert degeneracy(random_tree(n, seed)) == 1


def bucket_peel(g):
    """The bucket-queue peel by position on the CSR that ``degeneracy`` ran
    before the layered peel: a reference for ``graphs._layer_peel``."""
    indptr, nbr = g.csr()
    ptr = indptr.tolist()
    deg = g.degrees.tolist()
    buckets = [[] for _ in range(g.max_degree + 1)]
    for v, dv in enumerate(deg):
        buckets[dv].append(v)
    removed = [False] * g.n
    d = cursor = 0
    remaining = g.n
    while remaining:
        while not buckets[cursor]:
            cursor += 1
        v = buckets[cursor].pop()
        if removed[v] or deg[v] != cursor:
            continue  # stale bucket entry
        d = max(d, cursor)
        removed[v] = True
        remaining -= 1
        for u in nbr[ptr[v]:ptr[v + 1]].tolist():
            if not removed[u]:
                deg[u] -= 1
                buckets[deg[u]].append(u)
                if deg[u] < cursor:
                    cursor = deg[u]
    return d


def reference_peel(g):
    """The bucket-queue peel on ids and sets over ``g.adj``: the reference
    for ``bucket_peel`` and ``graphs._layer_peel``."""
    if g.n == 0:
        return 0
    deg = {v: len(g.adj[v]) for v in g.nodes}
    max_deg = max(deg.values())
    buckets = [[] for _ in range(max_deg + 1)]
    for v in g.nodes:
        buckets[deg[v]].append(v)
    removed = set()
    d = 0
    cursor = 0
    remaining = g.n
    while remaining:
        while not buckets[cursor]:
            cursor += 1
        v = buckets[cursor].pop()
        if v in removed or deg[v] != cursor:
            continue  # stale bucket entry
        d = max(d, cursor)
        removed.add(v)
        remaining -= 1
        for u in g.adj[v]:
            if u not in removed:
                deg[u] -= 1
                buckets[deg[u]].append(u)
                if deg[u] < cursor:
                    cursor = deg[u]
    return d


def test_peel_equals_the_adj_reference():
    rng = random.Random(0x9EE1)
    corpus = [*family_corpus(rng), unit([], []), unit([42, 3, 10, 7], []),
              unit([42, 3, 10, 7], [(42, 3), (3, 10), (10, 7), (42, 10)]),
              unit(range(6), [(0, 1), (1, 2), (2, 0), (3, 4)])]
    for n in (50, 200):
        corpus += [generate("gnp", {"n": n, "p": p}, "unit", k)
                   for k, p in enumerate((0.02, 0.05, 0.1, 0.3))]
    for g in corpus:
        assert graphs._layer_peel(g) == bucket_peel(g) == reference_peel(g), g


# small cut-offs send small graphs through the drain's hand-over to the array
# layers and through layers of many pieces; 64 and 2^16 are the module's own
PEEL_SETTINGS = [(1, 1), (2, 1), (2, 5), (8, 3), (64, 1 << 16)]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 300), p=st.floats(0, 0.4), seed=st.integers(0, 2**32 - 1),
       cut_offs=st.sampled_from(PEEL_SETTINGS))
def test_layer_peel_equals_the_bucket_peel_on_gnp(n, p, seed, cut_offs):
    g = generate("gnp", {"n": n, "p": p}, "unit", seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "PEEL_SCALAR", cut_offs[0])
        mp.setattr(graphs, "PEEL_PIECE", cut_offs[1])
        assert graphs._layer_peel(g) == bucket_peel(g) == reference_peel(g)


def _clique_then_path(k, length):
    """K_k on 0..k-1, with a path of ``length`` more nodes hung off k - 1."""
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    edges += [(v, v + 1) for v in range(k - 1, k - 1 + length)]
    return unit(range(k + length), edges)


@pytest.mark.parametrize("cut_offs", PEEL_SETTINGS[2:], ids=["2-5", "8-3", "module"])
@pytest.mark.parametrize("g,expected", [
    (generate("path", {"n": 2**14}, "unit", 0), 1),
    (generate("star", {"n": 2**14}, "unit", 0), 1),
    (_clique_then_path(200, 2**14), 199),
    (unit([], []), 0),
    (unit(range(100), []), 0),
    (unit(range(100), [(0, 1), (1, 2), (2, 0)]), 2),
    # under 64 nodes: at the module's cut-offs every frontier drains
    (unit([0], []), 0),
    (generate("path", {"n": 63}, "unit", 0), 1),
    (generate("star", {"n": 63}, "unit", 0), 1),
    (unit(range(63), [(0, 1), (1, 2), (2, 0)]), 2),
    # ids that are not positions: a K_5 and a path on scattered ids
    (unit([7 * v + 3 for v in range(80)],
          [(7 * a + 3, 7 * b + 3) for a in range(5) for b in range(a + 1, 5)]
          + [(7 * v + 3, 7 * v + 10) for v in range(10, 79)]), 4),
], ids=["path", "star", "k200-path", "empty", "isolated", "isolated-triangle", "one-node",
        "path-63", "star-63", "isolated-triangle-63", "sparse-ids"])
def test_layer_peel_on_the_worst_cases(g, expected, cut_offs, monkeypatch):
    monkeypatch.setattr(graphs, "PEEL_SCALAR", cut_offs[0])
    monkeypatch.setattr(graphs, "PEEL_PIECE", cut_offs[1])
    assert graphs._layer_peel(g) == bucket_peel(g) == reference_peel(g) == expected


def _peel_peak(g):
    """``_layer_peel(g)`` and its tracemalloc peak above where it started."""
    graphs._layer_peel(generate("gnp", {"n": 100, "p": 0.1}, "unit", 0))  # first use
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        d = graphs._layer_peel(g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return d, peak


def test_layer_peel_peaks_below_half_what_the_graph_keeps():
    # the array layers read at most about PEEL_PIECE entries at once: the
    # peak is about 0.25 times the graph's arrays, 0.74 times with the whole
    # frontier read in one piece, and the bucket peel's lists took 2.37
    g = generate("gnp", {"n": 2**16, "p": 20 / 2**16}, "heavy_tail", 1)
    d, peak = _peel_peak(g)
    assert d == bucket_peel(g)
    assert peak <= 0.5 * _kept_bytes(g)


def test_layer_peel_on_a_star_peaks_below_what_the_graph_keeps():
    # the first layer is the n - 1 leaves: read in pieces of at most
    # PEEL_PIECE nodes, the peak is about 0.81 times the graph's arrays; with
    # the whole frontier's starts, lengths and cut built at once it was 1.19
    # (2^18 nodes, so that the frontier spans several pieces)
    g = generate("star", {"n": 2**18}, "unit", 0)
    d, peak = _peel_peak(g)
    assert d == 1
    assert peak <= 1.0 * _kept_bytes(g)


def test_degeneracy_bounded_by_max_degree():
    for k in range(10):
        g = generate("gnp", {"n": 40, "p": 0.2}, "unit", k)
        assert degeneracy(g) <= g.max_degree


# ------------------------------------------------------------- exact oracle

def _exhaustive_max_weight(g):
    """Independent oracle: scan all subsets (n <= 16)."""
    best = 0
    nodes = list(g.nodes)
    for r in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, r):
            if g.is_independent(combo):
                best = max(best, g.total_weight(combo))
    return best


def test_brute_force_examples():
    p3 = WeightedGraph([0, 1, 2], [(0, 1), (1, 2)], {0: 3, 1: 5, 2: 3})
    r = brute_force_max_is(p3)
    assert r.members == frozenset({0, 2}) and r.weight == 6

    single = WeightedGraph([4], [], {4: 7})
    assert brute_force_max_is(single).weight == 7

    k4 = WeightedGraph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)],
                       {0: 1, 1: 2, 2: 3, 3: 4})
    r = brute_force_max_is(k4)
    assert r.members == frozenset({3}) and r.weight == 4


@pytest.mark.parametrize("seed", range(12))
def test_brute_force_matches_exhaustive(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    g = generate("gnp", {"n": n, "p": rng.uniform(0.1, 0.7)}, "uniform_range", seed)
    assert brute_force_max_is(g).weight == _exhaustive_max_weight(g)


def test_oracle_dominates_the_heuristics():
    rng = random.Random(0xD0)
    for k in range(100):
        # n >= 3 keeps in-model weights (<= poly n) inside the CONGEST budget
        n = rng.randint(3, 18)
        g = generate("gnp", {"n": n, "p": rng.uniform(0.1, 0.6)},
                     "uniform_range", derive_seed(0xD0, k))
        opt = brute_force_max_is(g).weight
        assert greedy_mis(g).weight <= opt
        assert heavy_mis_approx(g, seed=k).iset.weight <= opt


def test_brute_force_cap():
    g = generate("path", {"n": 27}, "unit", 0)
    with pytest.raises(BruteForceCapError, match="cap of 26"):
        brute_force_max_is(g)
    assert brute_force_max_is(g, cap=27).weight == 14
    # the optimum is now cached on g, and the default cap still refuses it
    with pytest.raises(BruteForceCapError, match="cap of 26"):
        brute_force_max_is(g)


def test_oracle_and_degeneracy_are_computed_once_per_graph(monkeypatch):
    from mwisim import graphs

    calls = []
    solve, peel = graphs._branch_and_bound, graphs._layer_peel
    monkeypatch.setattr(graphs, "_branch_and_bound",
                        lambda h: calls.append("solve") or solve(h))
    monkeypatch.setattr(graphs, "_layer_peel", lambda h: calls.append("peel") or peel(h))
    g = generate("gnp", {"n": 20, "p": 0.3}, "heavy_tail", 4)
    first = brute_force_max_is(g)
    assert brute_force_max_is(g) is first
    assert brute_force_max_is(g, cap=20) is first
    assert degeneracy(g) == degeneracy(g) == peel(g)
    assert calls == ["solve", "peel"]


def test_new_graphs_start_with_empty_caches():
    g = generate("gnp", {"n": 20, "p": 0.3}, "uniform_range", 2)
    brute_force_max_is(g)
    degeneracy(g)
    assert g._opt is not None and g._degeneracy is not None
    every = np.ones(g.n, dtype=bool)
    assert g.induced(every) is g  # the same graph, caches included
    for h in (g.induced(g.mask(g.nodes[1:])),
              g.induced(every, [1] * g.n),
              generate("gnp", {"n": 20, "p": 0.3}, "uniform_range", 2),
              load(save(g))):
        assert h._opt is None and h._degeneracy is None and h._adj is None


def test_brute_force_result_is_independent():
    for seed in range(5):
        g = generate("gnp", {"n": 20, "p": 0.3}, "heavy_tail", seed)
        r = brute_force_max_is(g)
        assert g.is_independent(r.members)
        assert g.total_weight(r.members) == r.weight


# ------------------------------------------------------------------ save/load

def test_save_format_single_node():
    g = WeightedGraph([0], [], {0: 5})
    assert save(g) == "1 0\n0 5\n"
    assert load(save(g)) == g


def test_save_load_triangle():
    g = generate("cycle", {"n": 3}, "unit", 0)
    text = save(g)
    assert text.splitlines()[0] == "3 3"
    assert load(text) == g


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_save_load_roundtrip(n, seed):
    p = random.Random(seed).random()
    g = generate("gnp", {"n": n, "p": p},
                 ("unit", "uniform_range", "heavy_tail")[seed % 3], seed)
    assert load(save(g)) == g


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("junk\n", 1),
    ("2 1\n0 5\n1 6\n0 9\n", 4),     # edge references unknown id
    ("1 0\n0 5\n0 5\n", 3),           # a line past the header's counts
    ("3 1\n0 1\n1 1\n2 1\n0 1\n1 2\n", 6),  # an edge the header undercounts
    ("1 0\n0 5\n\n  \n", None),        # blank trailing lines are accepted
    ("-1 0\n", 1),                    # negative header count
    ("2 1\n0 5\n1 6\n", 4),           # fewer lines than promised
    ("100000000000 100000000000\n0 1\n", 3),  # a header past any text
    ("2 0\n0 5\nx 6\n", 3),           # unparsable node line
    ("1 0\n-3 5\n", 2),               # negative node id
    ("2 1\n0 5\n1 6\n0\n", 4),        # unparsable edge line
    ("2 1\n0 5\n0 6\n0 1\n", 3),      # duplicate node line
    ("2 2\n0 5\n1 6\n0 1\n0 1\n", 5),  # duplicate edge
    ("1 1\n0 5\n0 0\n", 3),           # self-loop
])
def test_parse_errors_carry_line_numbers(text, line):
    if line is None:
        load(text)
        return
    with pytest.raises(GraphParseError) as exc:
        load(text)
    assert exc.value.line_no == line


_TOKENS = ("0", "1", "2", "3", "5", "-1", "x", "", "1.5", "0 1", str(INT64_MAX),
           str(INT64_MAX + 1), "1_0", "99999999999")


@st.composite
def graph_texts(draw):
    """A header and n + m lines of small ints, then up to three corruptions:
    a line dropped, repeated, added or replaced, or a token replaced."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    ids = draw(st.permutations(range(n)))
    lines = [f"{n} {m}"]
    lines += [f"{v} {draw(st.integers(0, 9))}" for v in ids]
    lines += [f"{draw(st.integers(0, n))} {draw(st.integers(0, n))}" for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(("drop", "repeat", "add", "line", "token")))
        if kind == "add" or i == len(lines):
            lines.insert(i, " ".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=3))))
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "line":
            lines[i] = draw(st.sampled_from(_TOKENS))
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n", "\r\n")))


@settings(max_examples=150, deadline=None)
@given(st.one_of(graph_texts(), st.text(max_size=30)))
def test_load_returns_a_graph_or_raises_graph_error(text):
    try:
        g = load(text)
    except GraphError:
        return
    assert load(save(g)) == g


# ---------------------------------------------------------- independent sets

def test_independent_set_validates():
    g = unit(range(3), [(0, 1)])
    with pytest.raises(GraphError, match="not independent"):
        IndependentSet.of(g, g.mask({0, 1}))
    s = IndependentSet.of(g, g.mask({0, 2}))
    for bad in ([0, 2], [True, False], [True, False, True, False], np.array([1, 0, 1])):
        with pytest.raises(GraphError, match="^expected a boolean mask of 3 nodes"):
            IndependentSet.of(g, bad)
    empty = WeightedGraph([], [], {})
    assert IndependentSet.of(empty, []) == IndependentSet(frozenset(), 0)
    assert s.weight == 2 and len(s) == 2

