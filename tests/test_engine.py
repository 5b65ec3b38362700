import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwisim.engine import (Broadcast, CongestViolation, EngineError,
                           RoundLimitExceeded, StepResult,
                           message_budget_bits, run, run_on_subgraph)
from mwisim.graphs import WeightedGraph, generate
from mwisim.mis import LubyProgram
from mwisim.wire import Message


def unit(nodes, edges):
    return WeightedGraph(nodes, edges, {v: 1 for v in nodes})


class HaltInInit:
    def init(self, ctx, rng):
        return StepResult(halt=True, output="x")

    def step(self, state, ctx, inbox, rng):
        raise AssertionError("never stepped")


class ExchangeIds:
    """Send own id once, halt after reading the replies."""

    def init(self, ctx, rng):
        return StepResult(state=None, outbox=Broadcast(Message(1, (ctx.node_id,))))

    def step(self, state, ctx, inbox, rng):
        return StepResult(halt=True,
                          output=sorted(m.values[0] for m in inbox.values()))


class NeverHalt:
    def init(self, ctx, rng):
        return StepResult(state=0)

    def step(self, state, ctx, inbox, rng):
        return StepResult(state=state + 1)


class FatMessage:
    def __init__(self, bits):
        self.value = (1 << (bits - 1)) - 1  # bit_length = bits - 1

    def init(self, ctx, rng):
        return StepResult(state=None, outbox=Broadcast(Message(1, (self.value,))))

    def step(self, state, ctx, inbox, rng):
        return StepResult(halt=True, output=None)


def test_single_node_halts_in_init():
    out, stats = run(unit([0], []), HaltInInit())
    assert out == {0: "x"}
    assert stats.rounds == 0 and stats.messages_sent == 0


def test_two_node_exchange():
    out, stats = run(unit([0, 1], [(0, 1)]), ExchangeIds())
    assert out == {0: [1], 1: [0]}
    assert stats.rounds == 1 and stats.messages_sent == 2
    assert stats.per_round_messages == [2]


def test_congest_budget_enforced():
    g = unit([0, 1], [(0, 1)])
    budget = message_budget_bits(2)
    assert budget == 32
    with pytest.raises(CongestViolation) as exc:
        run(g, FatMessage(bits=40), mode="congest")
    err = exc.value
    assert err.round_no == 1 and err.budget_bits == 32 and err.size_bits > 32
    # LOCAL mode carries no budget
    out, stats = run(g, FatMessage(bits=40), mode="local")
    assert stats.budget_bits is None and stats.max_message_bits > 32


def test_round_limit_carries_partial_stats():
    with pytest.raises(RoundLimitExceeded) as exc:
        run(unit([0, 1], [(0, 1)]), NeverHalt(), max_rounds=5)
    assert exc.value.stats.rounds == 5
    assert sorted(exc.value.unfinished) == [0, 1]


def test_non_neighbor_unicast_rejected():
    class Sneaky:
        def init(self, ctx, rng):
            return StepResult(state=None, outbox={99: Message(1, (1,))})

        def step(self, state, ctx, inbox, rng):
            return StepResult(halt=True)

    g = unit([0, 1, 99], [(0, 1)])
    with pytest.raises(EngineError, match="non-neighbor"):
        run(g, Sneaky())


def test_run_on_subgraph_empty_and_full():
    g = generate("cycle", {"n": 5}, "unit", 0)
    out, stats = run_on_subgraph(g, [], LubyProgram(), seed=3)
    assert out == {} and stats.rounds == 0
    full_a = run(g, LubyProgram(), seed=3)
    full_b = run_on_subgraph(g, g.nodes, LubyProgram(), seed=3)
    assert full_a == full_b


def test_subgraph_semantics_inert_outside():
    g = generate("cycle", {"n": 6}, "unit", 0)
    out, _ = run_on_subgraph(g, [0, 2, 4], ExchangeIds(), seed=0)
    # the induced subgraph has no edges, so nobody hears anything
    assert out == {0: [], 2: [], 4: []}


def test_n_upper_configurable_upward():
    g = unit([0, 1], [(0, 1)])
    assert message_budget_bits(2) == 32
    assert message_budget_bits(1024) == 320
    # a message too fat for n_upper = 2 fits once the bound is raised
    out, stats = run(g, FatMessage(bits=40), n_upper=1024)
    assert stats.budget_bits == 320 and stats.max_message_bits <= 320


def test_subgraph_inherits_n_upper():
    seen = {}

    class Peek:
        def init(self, ctx, rng):
            seen[ctx.node_id] = ctx.n_upper
            return StepResult(halt=True)

        def step(self, *a):
            raise AssertionError

    g = generate("cycle", {"n": 40}, "unit", 0)
    run_on_subgraph(g, [0, 1], Peek())
    assert seen == {0: 40, 1: 40}


def test_context_excludes_global_knowledge():
    class Snoop:
        def init(self, ctx, rng):
            fields = set(vars(ctx))
            return StepResult(halt=True, output=fields)

        def step(self, *a):
            raise AssertionError

    g = generate("cycle", {"n": 4}, "unit", 0)
    out, _ = run(g, Snoop())
    assert out[0] == {"node_id", "weight", "neighbors", "n_upper"}


def test_determinism_same_seed():
    g = generate("gnp", {"n": 30, "p": 0.2}, "uniform_range", 1)
    a = run(g, LubyProgram(), seed=7)
    b = run(g, LubyProgram(), seed=7)
    assert a[0] == b[0]
    assert a[1].per_round_messages == b[1].per_round_messages
    c = run(g, LubyProgram(), seed=8)
    assert a[0] != c[0] or a[1].per_round_messages != c[1].per_round_messages


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_schedule_independence(seed, shuffle_seed):
    g = generate("gnp", {"n": 24, "p": 0.25}, "unit", seed % 17)
    base_out, base_stats = run(g, LubyProgram(), seed=seed)
    shuffler = random.Random(shuffle_seed)

    def order(nodes):
        nodes = list(nodes)
        shuffler.shuffle(nodes)
        return nodes

    out, stats = run(g, LubyProgram(), seed=seed, node_order=order)
    assert out == base_out
    assert stats.per_round_messages == base_stats.per_round_messages
    assert stats.max_message_bits == base_stats.max_message_bits


def test_halted_node_stops_sending():
    # node 0 halts in init; its init outbox must be dropped
    class OneShot:
        def init(self, ctx, rng):
            if ctx.node_id == 0:
                return StepResult(halt=True, output="gone",
                                  outbox=Broadcast(Message(1, (9,))))
            return StepResult(state=None)

        def step(self, state, ctx, inbox, rng):
            return StepResult(halt=True, output=len(inbox))

    out, stats = run(unit([0, 1], [(0, 1)]), OneShot())
    assert out == {0: "gone", 1: 0}
    assert stats.messages_sent == 0


def test_stats_merge():
    from mwisim.engine import RoundStats

    a = RoundStats(rounds=2, messages_sent=5, max_message_bits=10,
                   per_round_messages=[3, 2], budget_bits=64)
    b = RoundStats(rounds=1, messages_sent=7, max_message_bits=20,
                   per_round_messages=[7], budget_bits=64)
    c = a.merge(b)
    assert c.rounds == 3 and c.messages_sent == 12
    assert c.max_message_bits == 20 and c.per_round_messages == [3, 2, 7]
