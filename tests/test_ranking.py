import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwisim import ranking, verify
from mwisim.algorithms import run_algorithm
from mwisim.engine import run
from mwisim.graphs import GraphError, WeightedGraph, generate
from mwisim.ranking import (_bitsets, _nbr_positions, _rank_bits, _seq_bits,
                            boppana_once, check_perm_equivalence, rank_range)
from mwisim.rng import NodeStream, derive_seed, derive_seeds, node_rng, stream_words


def _ids_of(g, bits):
    return frozenset(v for i, v in enumerate(g.nodes) if bits >> i & 1)


def rank_rule(g, ranks):
    """The strict-max membership rule applied to a full rank assignment."""
    return _ids_of(g, _rank_bits(_nbr_positions(g), [ranks[v] for v in g.nodes]))


def _seq_rule(g, perm):
    """Keep each node of ``perm``, in order, iff no neighbor came earlier."""
    pos = dict(zip(g.nodes, range(g.n)))
    nbr_bits = _bitsets(_nbr_positions(g))
    return _ids_of(g, _seq_bits(nbr_bits, [pos[v] for v in perm]))


def fastld(g, eps, c=None, seed=0):
    return run_algorithm(g, "fastld", {"eps": eps, "c": c}, seed)


def unit(nodes, edges):
    return WeightedGraph(nodes, edges, {v: 1 for v in nodes})


def ranks_of(g, c, seed):
    """The ranks ``boppana_once(g, c, seed)`` draws: each node's first
    ``randint`` over the rank range."""
    r_max = rank_range(g.n, c)
    return {v: NodeStream(seed, v).randint(1, r_max) for v in g.nodes}


def test_rank_rule_examples():
    tri = generate("cycle", {"n": 3}, "unit", 0)
    assert rank_rule(tri, {0: 5, 1: 2, 2: 9}) == frozenset({2})

    k2 = unit([0, 1], [(0, 1)])
    assert rank_rule(k2, {0: 7, 1: 7}) == frozenset()  # tie excludes both

    edgeless = unit(range(4), [])
    assert rank_rule(edgeless, {v: 1 for v in range(4)}) == frozenset(range(4))


def test_boppana_one_round_and_in_range():
    g = generate("gnp", {"n": 64, "p": 0.1}, "unit", 3)
    r = boppana_once(g, c=2, seed=5)
    assert r.stats.rounds == 1
    assert r.stats.messages_sent == 2 * g.m
    assert r.diagnostics == {} and r.stack is None
    ranks = ranks_of(g, 2, 5)
    r_max = rank_range(64, 2)
    assert all(1 <= rank <= r_max for rank in ranks.values())
    # membership is exactly the strict-max rule on the drawn ranks
    assert r.iset.members == rank_rule(g, ranks)


@pytest.mark.parametrize("seed", range(25))
def test_boppana_always_independent(seed):
    rng = random.Random(seed)
    g = generate("gnp", {"n": rng.randint(2, 80), "p": rng.uniform(0.05, 0.5)},
                 "unit", derive_seed(0xAA, seed))
    assert g.is_independent(boppana_once(g, c=2, seed=seed).iset.members)


def test_boppana_edgeless_takes_all():
    g = unit(range(5), [])
    assert boppana_once(g, c=1, seed=0).iset.members == frozenset(range(5))


def test_seq_examples():
    p3 = unit([0, 1, 2], [(0, 1), (1, 2)])
    assert _seq_rule(p3, [2, 0, 1]) == frozenset({0, 2})

    k4 = generate("clique", {"n": 4}, "unit", 0)
    for perm in ([3, 1, 0, 2], [0, 1, 2, 3]):
        assert _seq_rule(k4, perm) == frozenset({perm[0]})

    edgeless = unit(range(4), [])
    assert _seq_rule(edgeless, [3, 1, 2, 0]) == frozenset(range(4))


def test_perm_equivalence_examples():
    assert check_perm_equivalence(unit([0, 1], [(0, 1)]))
    assert check_perm_equivalence(unit([0, 1, 2], [(0, 1), (1, 2)]))
    assert check_perm_equivalence(unit(range(5), []))
    assert check_perm_equivalence(generate("cycle", {"n": 6}, "unit", 0))
    with pytest.raises(GraphError, match="n <= 9"):
        check_perm_equivalence(unit(range(10), []))


@pytest.mark.parametrize("seed", range(10))
def test_perm_equivalence_random(seed):
    rng = random.Random(seed)
    g = generate("gnp", {"n": rng.randint(2, 6), "p": rng.uniform(0.2, 0.8)},
                 "unit", derive_seed(0xEE, seed))
    assert check_perm_equivalence(g)


def reference_seq_rule(g, perm):
    """The sequential rule on ids and sets over ``g.adj``: the reference."""
    processed, chosen = set(), set()
    for v in perm:
        if not any(u in processed for u in g.adj[v]):
            chosen.add(v)
        processed.add(v)
    return frozenset(chosen)


def reference_rank_rule(g, ranks):
    """The strict-max rule on ids over ``g.adj``: the reference."""
    return frozenset(v for v in g.nodes if all(ranks[v] > ranks[u] for u in g.adj[v]))


def test_rules_equal_the_id_reference_on_scattered_ids():
    # ids neither contiguous nor zero-based, listed out of order
    g = unit([42, 3, 10, 7], [(42, 3), (3, 10), (10, 7), (42, 10)])
    for perm in itertools.permutations([42, 3, 10, 7]):
        ranks = {v: 4 - pos for pos, v in enumerate(perm)}
        assert _seq_rule(g, perm) == reference_seq_rule(g, perm)
        assert rank_rule(g, ranks) == reference_rank_rule(g, ranks)
        assert rank_rule(g, ranks) == _seq_rule(g, perm)
    assert check_perm_equivalence(g)


@st.composite
def small_graphs(draw):
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=7, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    edges = [e for e, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    return unit(ids, edges)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_rules_equal_the_id_reference(g, data):
    perm = data.draw(st.permutations(g.nodes), label="perm")
    assert _seq_rule(g, perm) == reference_seq_rule(g, perm)
    # ranks from a small range, so that neighbors tie
    ranks = dict(zip(g.nodes, data.draw(st.lists(
        st.integers(1, 3), min_size=g.n, max_size=g.n), label="ranks")))
    assert rank_rule(g, ranks) == reference_rank_rule(g, ranks)
    ranks = {v: g.n - pos for pos, v in enumerate(perm)}
    assert rank_rule(g, ranks) == reference_rank_rule(g, ranks)


# the position-level rules, kept before any test patches them
SEQ_BITS, RANK_BITS = ranking._seq_bits, ranking._rank_bits


def _seq_ignoring_a_neighbor(nbr_bits, perm):
    # each position forgets its lowest neighbor
    return SEQ_BITS([b & (b - 1) for b in nbr_bits], perm)


def _rank_ignoring_a_neighbor(nbr_pos, rank):
    return RANK_BITS([row[1:] for row in nbr_pos], rank)


def _rank_strict_min(nbr_pos, rank):
    return RANK_BITS(nbr_pos, [-r for r in rank])


@pytest.mark.parametrize("name,broken", [
    ("_seq_bits", _seq_ignoring_a_neighbor),
    ("_rank_bits", _rank_ignoring_a_neighbor),
    ("_rank_bits", _rank_strict_min),
])
def test_perm_equivalence_fails_when_a_rule_is_broken(monkeypatch, name, broken):
    path = unit([0, 1, 2], [(0, 1), (1, 2)])
    assert check_perm_equivalence(path)
    monkeypatch.setattr(ranking, name, broken)
    assert not check_perm_equivalence(path)


def test_perm_equivalence_fails_when_both_rules_take_a_dependent_set(monkeypatch):
    path = unit([0, 1, 2], [(0, 1), (1, 2)])
    monkeypatch.setattr(ranking, "_seq_bits", lambda nbr_bits, perm: 0b111)
    monkeypatch.setattr(ranking, "_rank_bits", lambda nbr_pos, rank: 0b111)
    assert not check_perm_equivalence(path)
    assert check_perm_equivalence(unit(range(3), []))


def test_quick_c6_checks_every_permutation_of_its_corpus(monkeypatch):
    check, permutations = check_perm_equivalence, ranking.permutations
    sizes, perms = [], []

    def checked(g):
        sizes.append(g.n)
        return check(g)

    def counted(nodes):
        for perm in permutations(nodes):
            perms.append(perm)
            yield perm

    monkeypatch.setattr(verify, "check_perm_equivalence", checked)
    monkeypatch.setattr(ranking, "permutations", counted)
    ok, detail = verify._c6_equivalence(quick=True)
    assert ok
    assert detail == "68 graphs (trees, cycles, 50 random) x all permutations: 0 mismatches"
    assert len(sizes) == 68
    assert len(perms) == sum(map(math.factorial, sizes)) == 13171


def test_rules_read_no_adjacency_tuples(monkeypatch):
    def refuse(g):
        raise AssertionError("a ranking rule read WeightedGraph.adj")

    g = unit([42, 3, 10, 7], [(42, 3), (3, 10), (10, 7)])
    monkeypatch.setattr(WeightedGraph, "adj", property(refuse))
    assert check_perm_equivalence(g)
    assert check_perm_equivalence(generate("cycle", {"n": 6}, "unit", 0))
    assert _seq_rule(g, [10, 42, 7, 3]) == frozenset({10, 42})
    assert rank_rule(g, {42: 3, 3: 1, 10: 4, 7: 2}) == frozenset({10, 42})
    with pytest.raises(AssertionError, match="read WeightedGraph.adj"):
        g.adj


def test_tied_ranks_exclude_both_ends(monkeypatch):
    """With the rank range cut to {1, 2}, neighbours tie often. The kernel,
    the interpreter and the strict-max rule on the drawn ranks select the
    same set, which leaves out both ends of every tie."""
    monkeypatch.setattr(ranking, "rank_range", lambda n_upper, c: 2)
    cases = joined = 0
    for k in range(6):
        g = generate("gnp", {"n": 30, "p": 0.15}, "unit", k)
        for seed in (0, 7, 2**63 + 5):
            ranks = {v: NodeStream(seed, v).randint(1, 2) for v in g.nodes}
            want = rank_rule(g, ranks)
            joins, _ = run(g, ranking.BoppanaProgram(), seed=seed, node_order=list)
            assert boppana_once(g, seed=seed).iset.members == want
            assert frozenset(itertools.compress(g.nodes, joins)) == want
            tied = {x for u, v in g.edges() if ranks[u] == ranks[v] for x in (u, v)}
            assert tied and not want & tied
            cases += 1
            joined += len(want)
    assert cases == 18 and joined > 18  # some nodes are strictly above their neighbours


def test_rank_collisions_absent_at_width():
    # 10^6 independent pairs from the c=4 range: zero collisions expected
    r_max = rank_range(4096, 4)
    rng = node_rng(123, 0)
    collisions = sum(rng.randint(1, r_max) == rng.randint(1, r_max)
                     for _ in range(10**6))
    assert collisions == 0
    # the scalar stream's draws are its words: a rank needs 79 bits, the top
    # of two words, and a draw at or past r_max is rejected
    k = (r_max - 1).bit_length()
    words = stream_words(derive_seeds(123, [0]), np.arange(32)).tolist()
    tops = [(words[i] << 64 | words[i + 1]) >> (128 - k) for i in range(0, 32, 2)]
    want = [1 + x for x in tops if x < r_max][:4]
    rng = node_rng(123, 0)
    assert k == 79 and [rng.randint(1, r_max) for _ in want] == want


def test_fastld_c5():
    g = generate("cycle", {"n": 5}, "unit", 0)
    r = fastld(g, eps=0.5, c=2, seed=7)
    assert len(r.iset.members) == 2
    assert 2 * Fraction(3, 2) * 3 >= 5  # the claimed bound is satisfiable
    assert Fraction(3, 2) * (g.max_degree + 1) * len(r.iset.members) >= g.n


def test_fastld_edgeless():
    g = unit(range(7), [])
    r = fastld(g, eps=1.0, seed=0)
    assert r.iset.members == frozenset(range(7))


def test_fastld_phase_budget():
    g = generate("gnp", {"n": 128, "p": 0.05}, "unit", 1)
    c_rank = 2
    r = fastld(g, eps=0.5, c=c_rank, seed=3)
    t = 16  # ceil(8 / 0.5)
    assert r.diagnostics["phases"] == t
    assert r.stats.rounds <= t * (r.diagnostics["inner_rounds_max"] + 2)
    assert Fraction(3, 2) * (g.max_degree + 1) * len(r.iset.members) >= g.n


def test_fastld_size_bound_random():
    for seed in range(15):
        g = generate("gnp", {"n": 256, "p": 0.03}, "unit", derive_seed(0xFD, seed))
        r = fastld(g, eps=1.0, seed=seed)
        assert g.is_independent(r.iset.members)
        assert 2 * (g.max_degree + 1) * len(r.iset.members) >= g.n


def test_fastld_2048_statistical():
    # mean degree 30, eps = 1: |I| >= n / (2 (Delta+1)) in every run
    for seed in range(100):
        g = generate("gnp", {"n": 2048, "p": 30 / 2047}, "unit",
                     derive_seed(0xFD17, seed))
        r = fastld(g, eps=1.0, seed=seed)
        assert 2 * (g.max_degree + 1) * len(r.iset.members) >= g.n


def _disjoint_cliques(copies, k):
    return unit(range(copies * k), [(c * k + a, c * k + b) for c in range(copies)
                                    for a in range(k) for b in range(a + 1, k)])


def _clique_and_path(k, length):
    """K_k on 0..k-1, its node k-1 joined to a path on k..k+length-1."""
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    edges += [(v, v + 1) for v in range(k - 1, k + length - 1)]
    return unit(range(k + length), edges)


TIGHT_INPUTS = {"16xK4": _disjoint_cliques(16, 4), "32xK8": _disjoint_cliques(32, 8),
                "K8+P120": _clique_and_path(8, 120), "K16+P400": _clique_and_path(16, 400)}


@pytest.mark.parametrize("name", TIGHT_INPUTS)
def test_fastld_result_4_on_near_tight_inputs(name):
    # result 4: |I| >= n / ((1+eps)(Delta+1)) in O(1/eps) rounds on unit
    # weights with Delta <= n / log2 n. Disjoint copies of K_{Delta+1} have
    # OPT = n/(Delta+1), so only the (1+eps) factor is slack there.
    g = TIGHT_INPUTS[name]
    n, delta = g.n, g.max_degree
    assert delta * math.log2(n) <= n
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        for seed in range(10):
            r = fastld(g, eps=float(eps), seed=derive_seed(0x4E5, seed))
            assert g.is_independent(r.iset.members)
            assert len(r.iset) * (1 + eps) * (delta + 1) >= n
            assert r.stats.rounds <= 2 * math.ceil(8 / eps)


def test_rank_range_validates():
    with pytest.raises(GraphError, match="c must be"):
        rank_range(10, 0)
    assert rank_range(2, 1) == 800


def test_huge_rank_constant_is_refused_before_the_power():
    with pytest.raises(GraphError, match="64 limbs of 63 bits"):
        rank_range(4096, 10**9)
    # 4096 has 13 bits: 7 + 309 * 13 = 4024 bits fit, 7 + 310 * 13 do not
    assert rank_range(4096, 307).bit_length() <= 64 * 63
    with pytest.raises(GraphError, match="4037 bits"):
        rank_range(4096, 308)


@pytest.mark.parametrize("c", [2.5, float("nan"), 0, 2.0])
def test_rank_constant_must_be_an_integer_at_least_one(c):
    with pytest.raises(GraphError, match="c must be an integer >= 1"):
        rank_range(10, c)
    # a direct library call, which no parameter resolution guards
    with pytest.raises(GraphError, match="c must be an integer >= 1"):
        boppana_once(unit([0, 1], [(0, 1)]), c=c)


def test_program_c_parameter_changes_width():
    g = unit([0, 1], [(0, 1)])
    assert all(1 <= r <= 800 for r in ranks_of(g, 1, 9).values())
