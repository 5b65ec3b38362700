from collections import Counter

from mwisim.graphs import WeightedGraph
from mwisim.verify import (_connected, _tree_certificate, all_trees_upto,
                           mixed_corpus)


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


def test_mixed_corpus_deterministic_and_flagged():
    a = mixed_corpus(20, 4, 24, master=1, connected=True)
    b = mixed_corpus(20, 4, 24, master=1, connected=True)
    assert all(x == y for x, y in zip(a, b))
    assert all(_connected(g) for g in a)
    assert all(4 <= g.n <= 24 for g in a)
    low = mixed_corpus(15, 4, 24, master=2, low_degeneracy=True)
    from mwisim.graphs import degeneracy

    assert all(degeneracy(g) <= 6 for g in low)

