"""Counter-based node streams: one definition, a scalar and a numpy form."""

import random

import numpy as np
import pytest

from mwisim.algorithms import ALGORITHMS, run_algorithm
from mwisim.engine import run
from mwisim.graphs import INT64_MAX, WeightedGraph, generate
from mwisim.mis import LubyProgram
from mwisim.ranking import BoppanaProgram, rank_range
from mwisim.rng import (NodeStream, derive_seed, derive_seeds, node_rng,
                        node_uniform, node_uniforms, stream_randints,
                        stream_words)
from test_ranking import rank_rule

MASK = (1 << 64) - 1


class SplitMix64:
    """The textbook generator: add the golden gamma, then mix."""

    def __init__(self, seed):
        self.state = seed

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)


def test_pinned_words():
    s = NodeStream(0, 0)
    assert [s.getrandbits(64) for _ in range(3)] == [
        0x238275BC38FCBE91, 0xF89A2566B5822C54, 0x47200E1D9780FA44]
    s = NodeStream(MASK, 2**63 + 5)
    assert [s.getrandbits(64) for _ in range(2)] == [
        0x53D1479C26DFD3DE, 0x53C73BFE3393010F]
    assert derive_seed(0, 0) == 0xA706DD2F4D197E6F


def test_word_k_is_the_kth_splitmix64_output():
    for seed, v in ((0, 0), (7, 3), (MASK, 2**63 + 5), (-1, 12)):
        ref = SplitMix64(derive_seed(seed, v))
        s = node_rng(seed, v)
        assert [s.getrandbits(64) for _ in range(20)] == [ref.next() for _ in range(20)]


def test_scalar_and_numpy_words_agree():
    rng = random.Random(0x5EED)
    triples = 0
    for j in range(100):
        seed = rng.getrandbits(64) if j % 2 else rng.randrange(1 << 20)
        ids = [rng.getrandbits(64) if k % 3 == 0 else rng.randrange(4096)
               for k in range(10)]
        seeds = derive_seeds(seed, ids)
        assert seeds.tolist() == [derive_seed(seed, v) for v in ids]
        scalar = [[s.getrandbits(64) for _ in range(10)]
                  for s in (NodeStream(seed, v) for v in ids)]
        for k in range(10):
            assert stream_words(seeds, k).tolist() == [row[k] for row in scalar]
            triples += len(ids)
        # per-node counters, as a kernel draws them
        ks = np.array([rng.randrange(10) for _ in ids], dtype=np.int64)
        assert stream_words(seeds, ks).tolist() == [
            row[k] for row, k in zip(scalar, ks.tolist())]
    assert triples >= 10**4
    assert any(v >= 2**63 for v in ids)


def test_derive_seeds_takes_a_graphs_id_array():
    ids = [0, 1, 4095, 2**40 + 3, 2**53 + 1, 2**62, INT64_MAX - 1, INT64_MAX]
    g = WeightedGraph(ids, [(0, INT64_MAX), (2**62, 1)], {v: 1 for v in ids})
    for seed, salt in ((0, 0), (7, 0), (MASK, 0), (-3, 0x5A3B1E)):
        want = [derive_seed(seed, v, salt) for v in g.nodes]
        assert derive_seeds(seed, g._ids, salt).tolist() == want
        assert derive_seeds(seed, g.nodes, salt).tolist() == want


def test_getrandbits_reads_the_top_bits_of_whole_words():
    a, b = NodeStream(5, 9), NodeStream(5, 9)
    w0, w1 = a.getrandbits(64), a.getrandbits(64)
    assert b.getrandbits(100) == ((w0 << 64) | w1) >> 28
    c = NodeStream(5, 9)
    assert c.getrandbits(13) == w0 >> 51
    assert c.getrandbits(0) == 0 and c.getrandbits(64) == w1


@pytest.mark.parametrize("span_bits", [1, 20, 63, 64, 65, 100, 130])
def test_randint_is_exact_rejection(span_bits):
    # span 2^k + 1 needs k + 1 bits and rejects nearly half of the draws
    a, b = 3, 3 + (1 << span_bits)
    k = span_bits + 1
    rejected = 0
    ids = list(range(300))
    want = []
    for v in ids:
        bits = NodeStream(11, v)
        while True:
            x = bits.getrandbits(k)
            if x <= b - a:
                break
            rejected += 1
        want.append(a + x)
        assert NodeStream(11, v).randint(a, b) == want[-1]
    assert rejected > 50
    assert stream_randints(derive_seeds(11, ids), a, b).tolist() == want


def test_numpy_randints_are_int64_until_the_range_leaves_it():
    seeds = derive_seeds(1, range(50))
    assert stream_randints(seeds, 1, rank_range(4096, 2)).dtype == np.int64
    wide = stream_randints(seeds, 1, rank_range(4096, 3))
    assert wide.dtype == object and all(type(r) is int for r in wide)


def test_boppana_ranks_wider_than_64_bits():
    # c = 3 at n_upper = 4096: R = 100 * 4096^5 needs 67 bits, two words
    g = generate("gnp", {"n": 60, "p": 0.1}, "unit", 4)
    r_max = rank_range(4096, 3)
    assert (r_max - 1).bit_length() == 67
    kernel, stats = run(g, BoppanaProgram(3), seed=9, n_upper=4096)
    reference, ref_stats = run(g, BoppanaProgram(3), seed=9, n_upper=4096, node_order=list)
    assert kernel.tolist() == reference.tolist() and stats == ref_stats
    ranks = {v: NodeStream(9, v).randint(1, r_max) for v in g.nodes}
    # membership is the strict-max rule on these ranks
    joined = rank_rule(g, ranks)
    assert kernel.tolist() == [v in joined for v in g.nodes]
    assert all(1 <= r <= r_max for r in ranks.values())
    assert any(r >= 1 << 64 for r in ranks.values())
    assert stats.max_message_bits > 4 + 6 + 63  # two limbs on the wire


def test_node_uniforms_equal_node_uniform():
    ids = [0, 1, 17, 2**40, 2**63 + 1]
    for salt in (0, 0x5A3B1E):
        assert node_uniforms(42, ids, salt).tolist() == [
            node_uniform(42, v, salt) for v in ids]


def test_the_engine_seeds_no_mersenne_twister(monkeypatch):
    tiny = generate("gnp", {"n": 14, "p": 0.3}, "uniform_range", 0)
    c10 = generate("gnp", {"n": 60, "p": 0.12}, "uniform_range", 99)
    params = {"eps": 0.5, "alpha": 2}

    class NoTwister:
        def __init__(self, *args, **kwargs):
            raise AssertionError("random.Random was seeded")

    monkeypatch.setattr(random, "Random", NoTwister)
    for alg in ALGORITHMS:
        run_algorithm(tiny, alg, params, seed=3)
        run_algorithm(c10, alg, params, seed=7)
    run(c10, LubyProgram(), seed=11, node_order=list)
