import random
from collections import Counter
from dataclasses import replace

from mwisim import verify
from mwisim.algorithms import run_algorithm
from mwisim.boost import PhaseFrame
from mwisim.graphs import IndependentSet, WeightedGraph, generate
from mwisim.rng import derive_seed
from mwisim.verify import (_connected, _tree_certificate, all_trees_upto,
                           mixed_corpus)
from test_mis import family_corpus, scattered


def test_tree_enumeration_counts():
    # number of non-isomorphic trees on n = 1..7 nodes
    trees = all_trees_upto(7)
    counts = Counter(t.n for t in trees)
    assert [counts[n] for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]
    for t in trees:
        assert t.m == t.n - 1
        assert _connected(t)


def test_tree_certificate_distinguishes_shapes():
    path4 = _tree_certificate(4, [(0, 1), (1, 2), (2, 3)])
    star4 = _tree_certificate(4, [(0, 1), (0, 2), (0, 3)])
    assert path4 != star4
    # relabeling leaves the certificate unchanged
    relabeled = _tree_certificate(4, [(3, 2), (2, 1), (1, 0)])
    assert relabeled == path4


def test_connected_helper():
    assert _connected(WeightedGraph([0, 1], [(0, 1)], {0: 1, 1: 1}))
    assert not _connected(WeightedGraph([0, 1], [], {0: 1, 1: 1}))
    assert _connected(WeightedGraph([], [], {}))


def reference_connected(g):
    """A search over ``g.adj`` from the least id: the reference for ``_connected``."""
    seen = set(g.nodes[:1])
    stack = list(seen)
    while stack:
        for u in g.adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def test_connected_equals_the_adj_reference():
    rng = random.Random(0xC0)
    corpus = list(family_corpus(rng))
    for k in range(60):  # sparse G(n, p) and forests, connected and not
        n = rng.randint(1, 30)
        corpus.append(generate("gnp", {"n": n, "p": rng.uniform(0, 3 / n)}, "unit", k))
        corpus.append(scattered(corpus[-1], rng))
    corpus.append(WeightedGraph([9, 4, 30], [(4, 30)], {4: 1, 9: 2, 30: 3}))
    results = [_connected(g) for g in corpus]
    assert results == [reference_connected(g) for g in corpus]
    assert 0 < results.count(False) < len(results)


def test_c3_counts_one_cover_violation_per_run(monkeypatch):
    """A final set missing its least member, with its weight kept, leaves
    pushed nodes bare and passes every other check of C3."""
    def short_by_one(*args, **kwargs):
        r = run_algorithm(*args, **kwargs)
        members = r.iset.members - {min(r.iset.members)}
        return replace(r, iset=IndependentSet(members, r.iset.weight))

    monkeypatch.setattr(verify, "run_algorithm", short_by_one)
    ok, detail = verify._c3_boost(verify._Tally(), quick=True)
    assert not ok
    assert detail.startswith("168 boost runs vs oracle: 168 violations, first: "
                             "cover graph#0 eps=1/4: node ")
    assert detail.endswith(" is neither in the set nor adjacent to it")


def test_c8_replay_sees_the_drop_of_the_low_nodes():
    """On C8's graph #15 (alpha = 1), two low nodes outside phase 1's set
    keep a positive residual: the replay gives the run's sizes only with
    their drop, and refuses a frame whose nodes did not push their residuals."""
    g = mixed_corpus(30, 4, 24, master=0xAC08, low_degeneracy=True)[15]
    r = run_algorithm(g, "arb", {"alpha": 1, "eps": 0.5}, seed=derive_seed(0xA4B, 15))
    sizes = r.diagnostics["sizes"][:len(r.stack) + 1]
    assert sizes == [14, 0]
    assert verify._replayed_sizes(g, r.stack, 4) == sizes
    assert verify._replayed_sizes(g, r.stack, -1) == [14, 2]  # nothing dropped
    first = r.stack[0]
    assert verify._replayed_sizes(g, (PhaseFrame(first.ids, first.pushed + 1),), 4) is None


def test_mixed_corpus_deterministic_and_flagged():
    a = mixed_corpus(20, 4, 24, master=1, connected=True)
    b = mixed_corpus(20, 4, 24, master=1, connected=True)
    assert all(x == y for x, y in zip(a, b))
    assert all(_connected(g) for g in a)
    assert all(4 <= g.n <= 24 for g in a)
    low = mixed_corpus(15, 4, 24, master=2, low_degeneracy=True)
    from mwisim.graphs import degeneracy

    assert all(degeneracy(g) <= 6 for g in low)

