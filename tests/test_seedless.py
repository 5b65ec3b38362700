"""Seedless engine programs: one kernel run per graph, charged on every run.

A program that declares ``seedless = True`` never reads its seed, so
``run_on_subgraph`` keeps its kernel outcome on the executed graph, keyed by
``(program, n_upper, budget)``, and returns it on every later run with that
key. These tests hold a kept outcome to what a fresh run on an equal graph
(``twin``, with nothing kept) returns or raises.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwisim import boost, engine, heavy, mis, ranking, sparsify
from mwisim.engine import EngineError, run
from mwisim.graphs import INT64_MAX, WeightedGraph, generate

SEEDLESS = (heavy.LocalStatsProgram(), sparsify.ProfileProgram(4.0),
            sparsify.ProfileProgram(0.3))


def twin(g: WeightedGraph) -> WeightedGraph:
    """An equal graph built anew, so nothing is kept on it."""
    return WeightedGraph(g.nodes, g.edges(), dict(zip(g.nodes, g.w.tolist())))


def outcome(fn):
    """A run's outputs (values and dtype) and stats, or its error with every field."""
    try:
        out, stats = fn()
    except (EngineError, ValueError) as e:
        return (type(e).__name__, str(e), vars(e))
    return ("ok", out.tolist(), out.dtype, stats)


def weighted(n, p, graph_seed, ws):
    g = generate("gnp", {"n": n, "p": p}, "unit", graph_seed)
    return g.induced(np.ones(g.n, dtype=bool), ws[:g.n])


weights = st.one_of(st.integers(0, 10**6), st.integers(INT64_MAX - 2**20, INT64_MAX))


@given(st.integers(1, 24), st.floats(0.0, 0.6), st.integers(0, 2**32),
       st.lists(weights, min_size=24, max_size=24),
       st.sampled_from(["congest", "local"]),
       st.lists(st.sampled_from([None, 1, 4, 4096, 2**40]), min_size=1, max_size=4),
       st.integers(0, 2**64))
@settings(max_examples=80, deadline=None)
def test_a_kept_run_equals_a_fresh_run(n, p, graph_seed, ws, mode, uppers, seed):
    g = weighted(n, p, graph_seed, ws)
    for program in SEEDLESS:
        for n_upper in uppers:
            kw = dict(mode=mode, seed=seed, n_upper=n_upper)
            fresh = outcome(lambda: run(twin(g), program, **kw))
            first = outcome(lambda: run(g, program, **kw))
            again = outcome(lambda: run(g, program, **kw))
            assert first == again == fresh, (type(program).__name__, n_upper)
    # one entry per key that ran without error, and only then
    keys = {(program, n_upper if n_upper is not None else g.n,
             engine.message_budget_bits(n_upper or g.n) if mode == "congest" else None)
            for program in SEEDLESS for n_upper in uppers
            if outcome(lambda: run(twin(g), program, mode=mode, n_upper=n_upper))[0] == "ok"}
    assert set(g._runs or ()) == keys


def test_hits_share_the_read_only_outputs_and_copy_the_stats():
    g = generate("gnp", {"n": 30, "p": 0.2}, "heavy_tail", 3)
    for program in SEEDLESS:
        out1, stats1 = run(g, program, seed=1)
        out2, stats2 = run(g, program, seed=2)
        assert out2 is out1 and not out1.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out1[0] = out1[1]
        assert stats2 == stats1 and stats2 is not stats1
        stats2.per_round_messages.append(99)  # a caller's edit stays its own
        assert run(g, program)[1] == stats1


def test_a_congest_violation_is_raised_on_every_call_and_never_kept():
    # n_upper = 4 makes the budget 64 bits, below a 63-bit weight plus headers
    big = INT64_MAX - 5
    g = WeightedGraph([0, 1, 2], [(0, 1), (1, 2)], {0: big, 1: 1, 2: big})
    for program in SEEDLESS:
        errors = [outcome(lambda: run(g, program, n_upper=4)) for _ in range(3)]
        assert errors[0][0] == "CongestViolation"
        assert errors == [outcome(lambda: run(twin(g), program, n_upper=4))] * 3
        assert not g._runs
        # the same graph in LOCAL mode runs, and keeps only that run
        assert outcome(lambda: run(g, program, mode="local"))[0] == "ok"
        assert all(budget is None for _, _, budget in g._runs)
        g._runs = None


@pytest.mark.parametrize("program", SEEDLESS, ids=lambda p: repr(p))
def test_a_kept_run_obeys_the_limits_in_force(program):
    g = generate("gnp", {"n": 20, "p": 0.3}, "uniform_range", 5)
    kept = outcome(lambda: run(g, program))
    assert kept[0] == "ok" and kept[3].rounds == 2
    for limit in (0, 1, 2, 3):
        with mock.patch.object(engine, "DEFAULT_MAX_ROUNDS", limit):
            fresh = outcome(lambda: run(twin(g), program))
            assert outcome(lambda: run(g, program)) == fresh
            assert fresh[0] == ("ok" if limit >= 2 else "RoundLimitExceeded")
    for c_msg in (1, 2, 64):
        with mock.patch.object(engine, "DEFAULT_C_MSG", c_msg):
            fresh = outcome(lambda: run(twin(g), program))
            assert outcome(lambda: run(g, program)) == fresh
            assert fresh[0] == ("ok" if c_msg == 64 else "CongestViolation")
    # the kept run is still there, and still the one returned
    assert outcome(lambda: run(g, program)) == kept


def test_the_interpreter_always_runs():
    g = generate("gnp", {"n": 16, "p": 0.3}, "uniform_range", 2)
    for program in SEEDLESS:
        kernel_out, kernel_stats = run(g, program)
        out, stats = run(g, program, node_order=list)
        assert out.dtype == object and out.tolist() == kernel_out.tolist()
        assert stats == kernel_stats
    h = twin(g)
    for program in SEEDLESS:
        run(h, program, node_order=lambda nodes: nodes[::-1])
    assert h._runs is None


class DrawingProfile(sparsify.ProfileProgram):
    """Declared seedless, but its kernel draws from the nodes' streams."""

    def kernel(self, net):
        super().kernel(net)
        return net.randints(0, 1).astype(np.float64)


class HashingStats(heavy.LocalStatsProgram):
    def kernel(self, net):
        return super().kernel(net) & (net.words(np.arange(len(net.ids)), 0) % 2 == 0)


@pytest.mark.parametrize("program", [DrawingProfile(4.0), HashingStats()],
                         ids=lambda p: type(p).__name__)
def test_a_seedless_kernel_that_draws_is_refused(program):
    g = generate("cycle", {"n": 12}, "unit", 0)
    for _ in range(2):
        with pytest.raises(EngineError, match="declared seedless"):
            run(g, program)
    assert g._runs is None


@pytest.mark.parametrize("program", SEEDLESS, ids=lambda p: repr(p))
def test_outputs_do_not_depend_on_the_seed(program):
    g = generate("gnp", {"n": 40, "p": 0.15}, "heavy_tail", 7)
    runs = [outcome(lambda: run(twin(g), program, seed=seed, node_order=order))
            for seed in (1, 2**64 - 1) for order in (None, list)]
    assert runs[0][0] == "ok"
    # the interpreter's outputs are objects, the kernel's a numpy dtype
    assert all(r[1] == runs[0][1] and r[3] == runs[0][3] for r in runs)


def test_programs_that_draw_or_change_keep_nothing():
    g = generate("gnp", {"n": 30, "p": 0.2}, "uniform_range", 4)
    selected = frozenset(g.nodes[::7])
    for program in (mis.LubyProgram(), ranking.BoppanaProgram(3),
                    boost.ResidualUpdateProgram(selected)):
        assert not getattr(program, "seedless", False)
        run(g, program)
    assert g._runs is None


def test_a_seed_sweep_runs_each_seedless_kernel_once(monkeypatch):
    g = generate("gnp", {"n": 40, "p": 0.2}, "heavy_tail", 1)
    calls = []
    for cls in (heavy.LocalStatsProgram, sparsify.ProfileProgram):
        def counted(self, net, kernel=cls.kernel):
            calls.append(type(self).__name__)
            return kernel(self, net)
        monkeypatch.setattr(cls, "kernel", counted)

    def sweep(graph):
        return [(heavy.heavy_mis_approx(graph(), seed=s),
                 sparsify.sparse_approx(graph(), seed=s),
                 sparsify.sparse_approx(graph(), lam=0.3, seed=s)) for s in range(6)]

    kept = sweep(lambda: g)
    swept, calls[:] = calls[:], []
    assert kept == sweep(lambda: twin(g))
    # lam = 4 samples all of g, so its good-node run is g's; lam = 0.3
    # samples less, and each smaller sample is a new graph
    assert all(r.diagnostics["sampled"] == g.n for _, r, _ in kept)
    short = sum(r.diagnostics["sampled"] < g.n for _, _, r in kept)
    assert short > 0
    assert sorted(swept) == ["LocalStatsProgram"] * (1 + short) + ["ProfileProgram"] * 2
    # on twins, where nothing is kept, every run computes
    assert sorted(calls) == ["LocalStatsProgram"] * 18 + ["ProfileProgram"] * 12
