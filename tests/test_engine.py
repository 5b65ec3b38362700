import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwisim import engine
from mwisim.arb import arb_reduce
from mwisim.boost import ResidualUpdateProgram
from mwisim.engine import (CongestViolation, EngineError, Net, RoundLimitExceeded,
                           StepResult, message_budget_bits, run,
                           run_on_subgraph)
from mwisim.graphs import GraphError, WeightedGraph, generate
from mwisim.mis import LubyProgram
from mwisim.wire import Message


def unit(nodes, edges):
    return WeightedGraph(nodes, edges, {v: 1 for v in nodes})


def round_limit(k):
    """The engine's round limit set to ``k`` inside a ``with`` block."""
    return mock.patch.object(engine, "DEFAULT_MAX_ROUNDS", k)


class HaltInInit:
    def init(self, ctx, rng):
        return StepResult(halt=True, output="x")

    def step(self, state, ctx, inbox, rng):
        raise AssertionError("never stepped")


class ExchangeIds:
    """Send own id once, halt after reading the replies."""

    def init(self, ctx, rng):
        return StepResult(state=None, outbox=Message(1, (ctx.node_id,)))

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
        return StepResult(state=None, outbox=Message(1, (self.value,)))

    def step(self, state, ctx, inbox, rng):
        return StepResult(halt=True, output=None)


def test_single_node_halts_in_init():
    out, stats = run(unit([0], []), HaltInInit())
    assert out.tolist() == ["x"]
    assert stats.rounds == 0 and stats.messages_sent == 0


def test_two_node_exchange():
    out, stats = run(unit([0, 1], [(0, 1)]), ExchangeIds())
    assert out.tolist() == [[1], [0]]
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
    with round_limit(5), pytest.raises(RoundLimitExceeded) as exc:
        run(unit([0, 1], [(0, 1)]), NeverHalt())
    assert exc.value.stats.rounds == 5
    assert exc.value.unfinished == [0, 1]


def test_round_limit_is_read_at_each_send():
    g = unit([0, 1, 2], [(0, 1)])
    net = Net(g, g.n, 0, None)
    every = np.ones(3, dtype=bool)
    net.send(every, every, 1)
    with round_limit(1), pytest.raises(RoundLimitExceeded) as exc:
        net.send(every, every, 1)
    assert exc.value.stats.rounds == 1 and exc.value.unfinished == [0, 1, 2]
    with round_limit(2):
        net.send(every, every, 1)
    assert net.stats.rounds == 2 and net.stats.per_round_messages == [2, 2]


@pytest.mark.parametrize("outbox", [{1: Message(1, (1,))}, (Message(1),), 7],
                         ids=["dict", "tuple", "int"])
def test_non_message_outbox_rejected(outbox):
    class Stale:
        """Sends an old-style per-recipient dict (or other non-Message) in
        round 2."""

        def init(self, ctx, rng):
            return StepResult(state=0, outbox=Message(1))

        def step(self, state, ctx, inbox, rng):
            return StepResult(state=1, outbox=outbox if ctx.node_id == 1 else None)

    g = unit([0, 1, 2], [(0, 1)])
    with pytest.raises(EngineError, match=r"^round 2: node 1 sent a \w+, not a Message"):
        with round_limit(5):
            run(g, Stale())


def test_non_message_outbox_wins_over_the_round_limit():
    """The outbox is refused when its step returns, before ``Net.send``
    opens the round it would go out in; with a round limit of 1 that round is
    also past the limit. Of several such senders, the least id is named."""

    class Stale:
        def init(self, ctx, rng):
            return StepResult(state=0, outbox=Message(1))

        def step(self, state, ctx, inbox, rng):
            return StepResult(state=1, outbox=7 if ctx.node_id else None)

    g = unit([0, 1, 2], [(0, 1), (1, 2)])
    for node_order in (None, list, lambda nodes: nodes[::-1]):
        with round_limit(1), pytest.raises(EngineError) as exc:
            run(g, Stale(), node_order=node_order)
        assert type(exc.value) is EngineError
        assert str(exc.value) == "round 2: node 1 sent a int, not a Message"


class Chatter:
    """Every node broadcasts ``Message(1, (value, value))`` in every round
    and never halts, in both forms: ``kernel`` sends the same through
    ``Net.send``."""

    def __init__(self, value):
        self.value = value

    def init(self, ctx, rng):
        return StepResult(state=None, outbox=Message(1, (self.value, self.value)))

    def step(self, state, ctx, inbox, rng):
        return self.init(ctx, rng)

    def kernel(self, net):
        everyone = np.ones(len(net.ids), dtype=bool)
        values = np.full(len(net.ids), self.value, dtype=np.int64)
        while True:
            net.send(everyone, everyone, 1, values, values)


def _error(fn):
    with pytest.raises(EngineError) as exc:
        fn()
    return type(exc.value), str(exc.value), vars(exc.value)


def test_reversed_interpreter_raises_the_kernels_errors():
    g = generate("path", {"n": 5}, "unit", 0)

    def both(value, limit):
        with round_limit(limit):
            kernel = _error(lambda: run(g, Chatter(value)))
            assert _error(lambda: run(g, Chatter(value),
                                      node_order=lambda nodes: nodes[::-1])) == kernel
        return kernel

    # the over-budget broadcast names the first sender by position and
    # its first neighbor; the round limit lists the nodes by position
    over = both(2**62, 10)
    assert over[0] is CongestViolation
    assert (over[2]["sender"], over[2]["receiver"], over[2]["round_no"]) == (0, 1, 1)
    stuck = both(1, 3)
    assert stuck[0] is RoundLimitExceeded and stuck[2]["unfinished"] == [0, 1, 2, 3, 4]
    assert stuck[2]["stats"].per_round_messages == [8, 8, 8]


def test_run_on_subgraph_empty_and_full():
    g = generate("cycle", {"n": 5}, "unit", 0)
    out, stats = run_on_subgraph(g, np.zeros(g.n, dtype=bool), LubyProgram(), seed=3)
    assert out.tolist() == [] and stats.rounds == 0
    out_a, stats_a = run(g, LubyProgram(), seed=3)
    out_b, stats_b = run_on_subgraph(g, g.mask(g.nodes), LubyProgram(), seed=3)
    assert out_a.tolist() == out_b.tolist() and stats_a == stats_b


def test_run_on_subgraph_rejects_unknown_nodes_like_induced():
    g = generate("cycle", {"n": 5}, "unit", 0)
    with pytest.raises(GraphError, match="^node 7 is not in the graph$"):
        run_on_subgraph(g, g.mask([0, 9, 7]), LubyProgram())
    # only a boolean mask by position selects nodes, as for ``induced``
    for bad in ([0, 1, 2, 3, 4], [True] * 4, [True] * 6, np.ones(5, dtype=np.int64)):
        with pytest.raises(GraphError) as want:
            g.induced(bad)
        with pytest.raises(GraphError) as got:
            run_on_subgraph(g, bad, LubyProgram())
        assert str(got.value) == str(want.value)
    empty = WeightedGraph([], [], {})
    assert run_on_subgraph(empty, [], LubyProgram())[0].tolist() == []


def test_full_subset_runs_on_the_graph_itself(monkeypatch):
    g = generate("gnp", {"n": 30, "p": 0.2}, "unit", 2)
    want_out, want_stats = run(g, LubyProgram(), seed=4)
    assert g.induced(np.ones(g.n, dtype=bool)) is g

    def no_build(*args, **kwargs):
        raise AssertionError("a full-graph run built a subgraph")

    monkeypatch.setattr(WeightedGraph, "_build", no_build)
    for out, stats in (run(g, LubyProgram(), seed=4),
                       run_on_subgraph(g, g.mask(reversed(g.nodes)), LubyProgram(), seed=4)):
        assert out.tolist() == want_out.tolist() and stats == want_stats


def test_subgraph_semantics_inert_outside():
    g = generate("cycle", {"n": 6}, "unit", 0)
    out, _ = run_on_subgraph(g, g.mask([0, 2, 4]), ExchangeIds(), seed=0)
    # the induced subgraph has no edges, so nobody hears anything
    assert out.tolist() == [[], [], []]


def test_outputs_follow_the_executed_graphs_positions():
    g = generate("gnp", {"n": 30, "p": 0.25}, "uniform_range", 3)
    subset = [29, 3, 17, 8, 0, 22, 11, 5, 14, 26]  # a proper subset, unsorted
    keep = g.mask(subset)
    h = g.induced(keep)
    selected = frozenset({3, 22})  # both of degree 2 in h
    want = arb_reduce(dict(zip(h.nodes, h.w.tolist())), selected, h)
    assert [v for v in sorted(subset) if want[v] == 0] == sorted(selected)
    for node_order in (None, list):
        out, _ = run_on_subgraph(g, keep, ResidualUpdateProgram(selected),
                                 node_order=node_order)
        assert out.tolist() == [want[v] for v in sorted(subset)]
        assert [i for i, r in enumerate(out) if r == 0] == [
            sorted(subset).index(v) for v in sorted(selected)]


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
    run_on_subgraph(g, g.mask([0, 1]), Peek())
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
    assert a[0].tolist() == b[0].tolist()
    assert a[1].per_round_messages == b[1].per_round_messages
    c = run(g, LubyProgram(), seed=8)
    assert a[0].tolist() != c[0].tolist() or a[1].per_round_messages != c[1].per_round_messages


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
    assert out.tolist() == base_out.tolist()
    assert stats.per_round_messages == base_stats.per_round_messages
    assert stats.max_message_bits == base_stats.max_message_bits


def test_halted_node_stops_sending():
    # node 0 halts in init; its init outbox must be dropped
    class OneShot:
        def init(self, ctx, rng):
            if ctx.node_id == 0:
                return StepResult(halt=True, output="gone",
                                  outbox=Message(1, (9,)))
            return StepResult(state=None)

        def step(self, state, ctx, inbox, rng):
            return StepResult(halt=True, output=len(inbox))

    out, stats = run(unit([0, 1], [(0, 1)]), OneShot())
    assert out.tolist() == ["gone", 0]
    assert stats.messages_sent == 0


class ReadInboxes:
    """Every node but ``quiet`` sends its id in init (``quiet`` halts), no
    node sends in round 1, and all halt in round 2. Each step's inbox is
    kept, with what a program can read from it."""

    def __init__(self, quiet=None):
        self.quiet = quiet

    def init(self, ctx, rng):
        if ctx.node_id == self.quiet:
            return StepResult(halt=True, output=[])
        return StepResult(state=[], outbox=Message(1, (ctx.node_id,)))

    def step(self, state, ctx, inbox, rng):
        missing = []
        for u in ctx.neighbors:
            try:
                inbox[u]
            except KeyError:
                missing.append(u)
        seen = state + [(inbox, dict(inbox), list(inbox), len(inbox),
                         inbox.get(self.quiet), missing)]
        if len(seen) == 2:
            return StepResult(halt=True, output=seen)
        return StepResult(state=seen)


@pytest.mark.parametrize("node_order", [None, lambda nodes: nodes[::-1]],
                         ids=["default-order", "reversed"])
def test_inbox_is_the_dict_of_last_rounds_senders(monkeypatch, node_order):
    """On a star with centre 2 and ids 0..4, and on one with centre 11 whose
    ids (3, 10, 11, 20, 42) are not their positions, an inbox equals the
    dict the rule ``{u: sent[u] for u in adj[v] if u in sent}`` builds,
    reads in ascending sender order, and refuses writes. Round 1 takes the
    every-node-sent path (``filter`` is never called; each inbox is the
    node's CSR row of the messages by position) without a quiet node and
    the filtered path with a leaf quiet; round 2, with no senders, hands
    every node one shared empty inbox."""
    from mwisim import engine

    filtered = []

    def counting_filter(*args):
        filtered.append(args)
        return filter(*args)

    monkeypatch.setattr(engine, "filter", counting_filter, raising=False)
    for ids, centre, leaf in (([0, 1, 2, 3, 4], 2, 3), ([3, 10, 11, 20, 42], 11, 20)):
        g = unit(ids, [(centre, u) for u in ids if u != centre])
        adj = g.adj
        for quiet in (None, leaf):
            filtered.clear()
            out, _ = run(g, ReadInboxes(quiet), node_order=node_order)
            sent = {u: Message(1, (u,)) for u in g.nodes if u != quiet}
            assert bool(filtered) is (quiet is not None)
            empties = set()
            for v, seen in zip(g.nodes, out):
                if v == quiet:
                    assert seen == []
                    continue
                (inbox, as_dict, keys, size, got, missing), last = seen
                want = {u: sent[u] for u in adj[v] if u in sent}
                assert inbox == want and want == inbox and as_dict == want
                assert keys == sorted(want) == list(inbox.keys()) and size == len(want)
                assert list(inbox.items()) == sorted(want.items())
                assert list(inbox.values()) == [want[u] for u in keys]
                assert got is None and (quiet in inbox) is False
                assert missing == sorted(set(adj[v]) - sent.keys())
                assert missing == ([leaf] if v == centre and quiet == leaf else [])
                with pytest.raises(TypeError):
                    inbox[keys[0]] = Message(1)
                empties.add(id(last[0]))
                assert last[1:] == ({}, [], 0, None, list(adj[v]))
            assert len(empties) == 1


@pytest.mark.parametrize("make,fields", [
    (lambda: Message(3, (5, 1 << 40)), ("tag", "values", "size_bits")),
    (lambda: StepResult(state=(1, 2), outbox=Message(1), halt=True, output="x"),
     ("state", "outbox", "halt", "output")),
], ids=["Message", "StepResult"])
def test_messages_and_step_results_are_slotted_frozen_values(make, fields):
    """No instance dict, no writes, and equality and hash by the fields in
    order, as a frozen dataclass with a dict compares and hashes."""
    import dataclasses

    a, b = make(), make()
    assert not hasattr(a, "__dict__")
    assert tuple(f.name for f in dataclasses.fields(a)) == fields
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, None)
    values = tuple(getattr(a, name) for name in fields)
    assert a is not b and a == b and hash(a) == hash(b) == hash(values)
    assert a != dataclasses.replace(a, **{fields[0]: 7})


def test_stats_merge():
    from mwisim.engine import RoundStats

    a = RoundStats([3, 2], max_message_bits=10, budget_bits=64)
    b = RoundStats([7], max_message_bits=20, budget_bits=64)
    c = a.merge(b)
    assert c.rounds == 3 and c.messages_sent == 12
    assert c.max_message_bits == 20 and c.per_round_messages == [3, 2, 7]


def test_stats_totals_are_read_from_the_per_round_list():
    from mwisim.engine import RoundStats

    with pytest.raises(TypeError):
        RoundStats(rounds=1)
    with pytest.raises(TypeError):
        RoundStats(messages_sent=5)
    s = RoundStats([2, 3])
    assert s.rounds == 2 and s.messages_sent == 5
    with pytest.raises(AttributeError):
        s.rounds = 7
    m = s.merge(RoundStats([4]))
    assert m.rounds == 3 and m.messages_sent == 9
    assert RoundStats().merge(s).rounds == 2 and s.merge(RoundStats()).messages_sent == 5


class HashedBroadcasts:
    """A random broadcast program: whether a node halts, and what it sends,
    is a hash of (salt, node id, round, sorted inbox). Its output lists the
    rounds in which its messages were delivered."""

    LAST_ROUND = 12

    def __init__(self, salt):
        self.salt = salt

    def _act(self, ctx, round_no, inbox, delivered):
        heard = tuple(sorted((u, m.values) for u, m in inbox.items()))
        h = int.from_bytes(hashlib.blake2b(
            repr((self.salt, ctx.node_id, round_no, heard)).encode(),
            digest_size=8).digest(), "big")
        if h % 5 == 0 or round_no >= self.LAST_ROUND:
            return StepResult(halt=True, output=(delivered, h))
        if h >> 3 & 3 == 0:
            return StepResult(state=(round_no + 1, delivered))
        msg = Message(1 + (h >> 5) % 15, (h >> 9 & 0xFFFF, ctx.node_id))
        return StepResult(state=(round_no + 1, delivered + (round_no + 1,)),
                          outbox=msg)

    def init(self, ctx, rng):
        return self._act(ctx, 0, {}, ())

    def step(self, state, ctx, inbox, rng):
        round_no, delivered = state
        return self._act(ctx, round_no, inbox, delivered)


@given(st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 2**32),
       st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_random_broadcast_programs(n, p, graph_seed, salt, shuffle_seed):
    g = generate("gnp", {"n": n, "p": p}, "uniform_range", graph_seed)
    pick = random.Random(shuffle_seed)
    keep = np.array([pick.random() < 0.75 for _ in g.nodes], dtype=bool)
    program = HashedBroadcasts(salt)
    base_out, base_stats = run_on_subgraph(g, keep, program, mode="local")

    def order(nodes):
        nodes = list(nodes)
        pick.shuffle(nodes)
        return nodes

    out, stats = run_on_subgraph(g, keep, program, mode="local",
                                 node_order=order)
    assert out.tolist() == base_out.tolist() and stats == base_stats

    # every message reaches each neighbor in the executed graph once
    h = g.induced(keep)
    want = [0] * stats.rounds
    for v, (delivered, _) in zip(h.nodes, out):
        for r in delivered:
            want[r - 1] += len(h.adj[v])
    assert stats.per_round_messages == want
    assert stats.messages_sent == sum(want)


def test_hashed_broadcasts_pinned():
    """``HashedBroadcasts`` has no kernel, so this pin is what ties the
    interpreter's inboxes to a fixed reference: every decision hashes the
    node's sorted inbox, and any change in who hears what moves the digest.
    The G(24, p) cases always have a silent node; K4 with salts 4 and 5
    has a round in which every node sends."""
    cases = []
    for p in (0.1, 0.3, 0.6):
        g = generate("gnp", {"n": 24, "p": p}, "uniform_range", 5)
        pick = random.Random(20)
        keep = np.array([pick.random() < 0.75 for _ in g.nodes], dtype=bool)
        cases += [(g, keep, salt) for salt in range(3)]
    k4 = generate("gnp", {"n": 4, "p": 1.0}, "uniform_range", 5)
    cases += [(k4, np.ones(4, dtype=bool), salt) for salt in range(6)]
    runs = []
    for g, keep, salt in cases:
        shuffled = random.Random(salt)

        def order(nodes):
            nodes = list(nodes)
            shuffled.shuffle(nodes)
            return nodes

        for node_order in (None, order):
            out, stats = run_on_subgraph(g, keep, HashedBroadcasts(salt), mode="local",
                                         node_order=node_order)
            runs.append((out.tolist(), stats))
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == "29cb1a2da890ca046ea5d28e70e7f8a39f7e8f55eb9dd865fe743125a69e476f"


@pytest.mark.parametrize("kwargs,reason", [
    ({"mode": "quantum"}, "unknown mode 'quantum'"),
    ({"node_order": lambda nodes: nodes[1:]}, "node_order must permute the subset"),
], ids=["mode", "node-order"])
def test_run_refuses_bad_arguments(kwargs, reason):
    with pytest.raises(EngineError, match=f"^{reason}$"):
        run(unit(range(3), [(0, 1)]), ExchangeIds(), **kwargs)
