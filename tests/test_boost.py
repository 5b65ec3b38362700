import random
import time
from fractions import Fraction
from itertools import compress

import pytest

from mwisim.algorithms import RunOutcome, as_inner, run_algorithm
from mwisim.arb import arb_approx, arb_reduce
from mwisim.boost import (BoostPhaseError, PhaseFrame, boost,
                          check_stack_property, phase_count, pop_stack)
from mwisim.engine import RoundStats
from mwisim.graphs import (GraphError, IndependentSet, WeightedGraph,
                           brute_force_max_is, degeneracy, generate)
from mwisim.rng import derive_seed

heavy_inner = as_inner("heavy", {})


def boost_reduce(w, selected, g):
    """Boosting's reduction: the zeroed set is the selected set."""
    return arb_reduce(w, selected, selected, g)


def weighted_path(weights):
    n = len(weights)
    return WeightedGraph(range(n), [(i, i + 1) for i in range(n - 1)],
                         dict(enumerate(weights)))


# ------------------------------------------------------------ weight reduction

def test_reduce_examples():
    p3 = weighted_path([3, 5, 3])
    w2 = boost_reduce(p3.weights, {1}, p3)
    assert [w2[v] for v in range(3)] == [-2, 0, -2]

    w_same = boost_reduce(p3.weights, set(), p3)
    assert w_same == {0: 3, 1: 5, 2: 3}

    p4 = weighted_path([2, 3, 3, 2])
    w2 = boost_reduce(p4.weights, {1}, p4)
    assert [w2[v] for v in range(4)] == [-1, 0, 0, 2]


def test_reduce_matches_closed_neighborhood_form():
    # w_{i+1}(v) = w_i(v) - sum over N+(v) cap I equals the two-case form
    for seed in range(10):
        g = generate("gnp", {"n": 14, "p": 0.3}, "uniform_range", seed)
        w = g.weights
        rng = random.Random(seed)
        members = set()
        for v in sorted(g.nodes, key=lambda v: rng.random()):
            if not any(u in members for u in g.adj[v]):
                members.add(v)
                if len(members) == 3:
                    break
        nxt = boost_reduce(w, members, g)
        for v in g.nodes:
            closed = set(g.adj[v]) | {v}
            assert nxt[v] == w[v] - sum(w[u] for u in closed & members)


def test_reduce_rejects_dependent_set():
    g = weighted_path([1, 1, 1])
    with pytest.raises(GraphError, match="not independent"):
        boost_reduce(g.weights, {0, 1}, g)


def test_reduce_overflow_detected():
    g = WeightedGraph([0, 1], [(0, 1)], {0: 2**62, 1: 2**62})
    w = {0: -(2**62) - 2, 1: 2**62 + 1}
    with pytest.raises(OverflowError):
        boost_reduce(w, {1}, g)


# ----------------------------------------------------------------- the stack

def test_phase_frame_requires_positive_weights():
    with pytest.raises(GraphError, match="must be > 0"):
        PhaseFrame(1, frozenset({0}), {0: 0})
    with pytest.raises(GraphError, match="cover exactly"):
        PhaseFrame(1, frozenset({0}), {})


def test_stack_property_examples():
    g = weighted_path([2, 3, 3, 2])
    frames = (PhaseFrame(1, frozenset({1}), {1: 3}),
              PhaseFrame(2, frozenset({3}), {3: 2}))
    iset = pop_stack(g, frames)
    assert iset.members == frozenset({1, 3})
    assert iset.weight == 5
    assert check_stack_property(g, iset, frames)  # 5 >= 3 + 2, with equality
    assert check_stack_property(g, IndependentSet(frozenset(), 0), ())


def test_pop_is_newest_first():
    g = weighted_path([1, 1, 1])
    frames = (PhaseFrame(1, frozenset({1}), {1: 1}),
              PhaseFrame(2, frozenset({0, 2}), {0: 1, 2: 1}))
    # frame 2 pops first, so node 1 is blocked
    assert pop_stack(g, frames).members == frozenset({0, 2})


# --------------------------------------------------------------------- boost

class ScriptedInner:
    """Deterministic inner algorithm with a fixed per-phase script."""

    def __init__(self, sets):
        self.sets = list(sets)
        self.calls = 0

    def __call__(self, g_sub, seed, n_upper):
        members = frozenset(self.sets[self.calls]) & frozenset(g_sub.nodes)
        self.calls += 1
        return RunOutcome(IndependentSet.of(g_sub, members), RoundStats(rounds=1))


def test_boost_scripted_trace():
    g = weighted_path([2, 3, 3, 2])
    inner = ScriptedInner([{1}, {3}] + [set()] * 30)
    r = boost(g, inner, eps=0.5, c=8.0, seed=0)
    assert r.phases == 16
    assert r.iset.members == frozenset({1, 3})
    assert r.iset.weight == 5
    assert [f.pushed_weights for f in r.stack[:2]] == [{1: 3}, {3: 2}]
    assert check_stack_property(g, r.iset, r.stack)
    # phase 2 ran on the filtered graph: only node 3 had positive residual
    assert inner.calls == 2  # later phases saw no positive nodes


def test_boost_edgeless_takes_everything_in_phase_one():
    g = WeightedGraph(range(5), [], {v: v + 1 for v in range(5)})
    r = boost(g, heavy_inner, eps=1.0, c=8.0, seed=1)
    assert r.iset.members == frozenset(range(5))
    assert r.stack[0].members == frozenset(range(5))
    assert len(r.stack) == 1  # nothing is left for phase 2


def test_boost_path_vs_oracle():
    g = weighted_path([3, 5, 3])
    opt = brute_force_max_is(g).weight
    r = boost(g, heavy_inner, eps=0.5, c=8.0, seed=1)
    assert Fraction(3, 2) * g.max_degree * r.iset.weight >= opt
    assert check_stack_property(g, r.iset, r.stack)


def test_boost_invalid_inner_aborts_with_phase():
    g = weighted_path([1, 2, 1])

    class BadInner:
        def __call__(self, g_sub, seed, n_upper):
            everything = frozenset(g_sub.nodes)
            return RunOutcome(IndependentSet(everything, g_sub.total_weight()),
                              RoundStats())

    with pytest.raises(BoostPhaseError, match="phase 1"):
        boost(g, BadInner(), eps=1.0, c=8.0, seed=0)


def test_boost_refuses_an_inner_set_outside_its_graph():
    g = weighted_path([2, 3, 3, 2])
    picks = iter([{1}, {1}])  # phase 2 sees only node 3: node 1 has left

    def inner(g_sub, seed, n_upper):
        members = frozenset(next(picks))  # unchecked, like a faulty inner
        return RunOutcome(IndependentSet(members, 3), RoundStats(rounds=1))

    with pytest.raises(BoostPhaseError, match="phase 2: .*outside") as err:
        boost(g, inner, eps=0.5, c=8.0, seed=0)
    assert err.value.phase == 2


def test_boost_phase_error_is_a_graph_error():
    # so the CLI maps it to the invariant exit code like any other refusal
    assert issubclass(BoostPhaseError, GraphError)


def test_boost_stops_when_nothing_is_left():
    g = generate("gnp", {"n": 20, "p": 0.2}, "uniform_range", 3)
    start = time.perf_counter()
    r = run_algorithm(g, "boost-heavy", {"eps": 1e-9}, 0)
    assert time.perf_counter() - start < 1.0
    assert r.diagnostics["phases"] == phase_count(8.0, 1e-9)
    # a frame per phase that pushed nodes, and none after
    assert [f.phase for f in r.stack] == list(range(1, len(r.stack) + 1))
    assert all(f.members for f in r.stack)
    # phase seeds do not depend on eps: the 8 phases of eps = 1 empty the
    # graph too, and they are the same phases
    short = run_algorithm(g, "boost-heavy", {"eps": 1.0}, 0)
    assert (short.iset, short.stats, short.stack) == (r.iset, r.stats, r.stack)


def test_boost_rejects_bad_parameters():
    g = weighted_path([1, 1])
    with pytest.raises(GraphError, match="eps"):
        boost(g, heavy_inner, eps=0.0)
    with pytest.raises(GraphError, match="c must be"):
        boost(g, heavy_inner, eps=0.5, c=0.5)


@pytest.mark.parametrize("kw", [{"eps": float("nan")},
                                {"eps": 0.5, "c": float("nan")},
                                {"eps": float("inf")}], ids=["eps", "c", "eps-inf"])
def test_boost_rejects_non_finite_parameters(kw):
    g = weighted_path([1, 1])
    with pytest.raises(GraphError, match=r"algorithm 'boost': \w+ must be finite"):
        boost(g, as_inner("heavy", {}), **kw)


def test_phase_count_exact():
    assert phase_count(8.0, 0.25) == 32
    assert phase_count(8.0, 0.5) == 16
    assert phase_count(8.0, 1.0) == 8
    assert phase_count(8.0, 3.0) == 3  # ceil(8/3)


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
def test_boost_guarantees_random_corpus(eps):
    rng = random.Random(int(eps * 4))
    for k in range(12):
        n = rng.randint(4, 18)
        g = generate("gnp", {"n": n, "p": rng.uniform(0.2, 0.5)},
                     ("uniform_range", "heavy_tail")[k % 2], derive_seed(0xB7, k))
        if g.m == 0:
            continue  # the Delta-ratio claim needs Delta >= 1
        opt = brute_force_max_is(g).weight
        r = boost(g, heavy_inner, eps=float(eps), c=8.0,
                  seed=derive_seed(0xB8, k))
        t = phase_count(8.0, float(eps))
        assert r.phases == t
        assert r.stats.rounds <= t * (r.inner_rounds_max + 2)
        assert check_stack_property(g, r.iset, r.stack)
        assert (1 + eps) * g.max_degree * r.iset.weight >= opt
        assert (1 + eps) * (g.max_degree + 1) * r.iset.weight >= g.total_weight()
        # covering fact: every pushed node has a kept closed neighbor
        final = r.iset.members
        for frame in r.stack:
            for v in frame.members:
                assert v in final or any(u in final for u in g.adj[v])


def test_residuals_match_sequential_reduction():
    # in every phase the inner algorithm gets exactly (CSR included) the
    # subgraph of the input induced by the positive residuals of the
    # sequential reduction over all of the input, degree-capped for arb
    for alg in ("boost", "arb"):
        rng = random.Random(0x5EE)
        multi_phase = 0
        for k in range(16):
            n = rng.randint(10, 60)
            base = generate("gnp", {"n": n, "p": min(1.0, rng.uniform(3, 12) / n)},
                            ("uniform_range", "heavy_tail")[k % 2],
                            derive_seed(0x5EF, k))
            g = base.induced(base.nodes, {v: 0 if rng.random() < 0.2 else w
                                          for v, w in base.weights.items()})
            observed = []

            def recorder(g_sub, seed, n_upper):
                r = heavy_inner(g_sub, seed, n_upper)
                observed.append((g_sub, r.iset.members))
                return r

            if alg == "boost":
                cap = None
                r = boost(g, recorder, eps=1.0, c=8.0, seed=k)
            else:
                cap = 4  # alpha = 1 leaves high-degree nodes for later phases
                r = arb_approx(g, alpha=1, eps=0.5, inner=recorder, seed=k)
            replay = iter(observed)
            w = g.weights
            for frame in r.stack:
                mirror = g.induced([v for v in g.nodes if w[v] > 0], w)
                if cap is not None:
                    mirror = mirror.induced(compress(mirror.nodes,
                                                     mirror.degrees <= cap))
                if not mirror.n:
                    assert not frame.members
                    continue
                g_sub, members = next(replay)
                assert g_sub == mirror
                assert frame.members == members
                w = arb_reduce(w, members, members if cap is None else mirror.nodes, g)
            assert next(replay, None) is None
            multi_phase += len(observed) >= 2
        assert multi_phase >= 8, alg  # phases after the first are the point
